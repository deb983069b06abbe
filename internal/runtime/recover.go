package runtime

import (
	"fmt"

	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/obs"
)

// Report describes a live recovery session.
type Report struct {
	Faulty     []int
	Line       []int
	RolledBack []int
	// Restarted lists the crashed processes rehydrated from stable storage
	// by this session (empty for a Recover session on live nodes).
	Restarted []int
}

// Crash fails process i: its volatile state — dependency vector, protocol
// and collector state, application state — is discarded on the spot, while
// its stable store survives. Until Restart rehydrates the process, its
// application-facing methods refuse with ErrCrashed and messages addressed
// to it are lost in delivery, exactly as the model loses messages sent to a
// failed process. The rest of the cluster keeps running: survivors may keep
// sending (deliveries to the crashed process are dropped) and may keep
// receiving messages the crashed process sent before failing — the orphan
// dependencies this creates are exactly what the recovery session rolls
// back.
func (c *Cluster) Crash(i int) error {
	if i < 0 || i >= c.cfg.N {
		return fmt.Errorf("runtime: crash of process %d out of range", i)
	}
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down.Load() {
		return fmt.Errorf("runtime: p%d is already crashed", i)
	}
	// Recorded before CrashVolatile wipes the vector, so the event carries
	// the clock at the instant of failure.
	c.record(obs.Event{Kind: obs.EvCrash, P: i, Clock: n.k.DVRef()[i]})
	n.k.CrashVolatile()
	n.down.Store(true)
	// The frames it had fenced are volatile state too: nobody has seen them,
	// and nobody will. What it had staged may still reach the disk — the
	// legal schedule "crashed just after the flush".
	n.dropFenced()
	return nil
}

// cancelTransit opens a recovery session, and Close: it halts the
// application, advances the network epoch — which declares every message in
// transit lost — and cancels that traffic where it waits to be sent, so that
// nobody waits out a dead frame's flush or network delay only to throw it away
// on the epoch filter.
//
// The pass over the nodes is a barrier. A send reads (halted, epoch) and hands
// its frame over under its node's lock, so once a node's lock has been taken
// and released no old-epoch frame of that node can enter its fence or a queue
// any more; the fence is emptied in the same visit — behind the barrier, not
// before it — and the queues after the last node. What is left is on a socket,
// in a worker's hands or waiting on a receiver's lock: Quiesce waits for
// that.
//
// The queue sweep is skipped when nothing is in flight behind the barrier.
// The skip is exact: a queued frame holds the in-flight accounting its send
// took until it is delivered, parked or lost, and past the barrier nothing
// enters a queue — sends refuse and the fences are empty — so a zero read
// there means every queue is empty and stays so.
func (c *Cluster) cancelTransit() {
	// Halt first, then advance the epoch: a reader in between sees "halted"
	// (sends refuse), never the new epoch with the flag still clear.
	c.st.Or(1)
	epoch := c.st.Add(2) >> 1
	for _, n := range c.nodes {
		n.mu.Lock()
		n.dropFenced()
		n.mu.Unlock()
	}
	purged := 0
	if c.inflight.n.Load() != 0 {
		for i := range c.queues {
			purged += c.purgeQueue(&c.queues[i])
		}
	}
	if purged > 0 {
		c.inflight.Add(-purged)
		c.obs.QueueDepth.Add(-int64(purged))
		c.obs.SessionPurged.Add(uint64(purged))
	}
	c.record(obs.Event{Kind: obs.EvSessionPurge, P: -1, Msg: purged, Aux: int(epoch)})
}

// Down returns the crashed processes, in ascending order.
func (c *Cluster) Down() []int {
	var out []int
	for i, n := range c.nodes {
		if n.Down() {
			out = append(out, i)
		}
	}
	return out
}

// Recover runs a centralized recovery session on the live cluster for the
// given faulty set:
//
//  1. halt the application (Send/Checkpoint refuse with ErrHalted), advance
//     the network epoch so in-transit messages are lost, and cancel the ones
//     still waiting to be sent — fenced, or queued behind a network delay;
//  2. wait for what is already on the wire to drain;
//  3. crash the faulty nodes — their volatile state is discarded;
//  4. compute the recovery line per Lemma 1 from the stored vectors;
//  5. roll back every process whose component is stable (Algorithm 3 on
//     its collector, with LI when globalLI is true) and release stale UC
//     entries on the others;
//  6. record each rollback — on a recorded cluster, History cuts the
//     process's events at the line when it next reads them — and resume.
//
// Recover models processes that fail and rejoin within one session. For
// processes that crashed earlier via Crash use Restart, which rehydrates
// them from stable storage first; Recover refuses while any process is
// down.
func (c *Cluster) Recover(faulty []int, globalLI bool) (Report, error) {
	return c.session(faulty, globalLI, false)
}

// Restart rehydrates every crashed process from stable storage — dependency
// vector and interval index from its last stored checkpoint, fresh protocol
// and collector state — and runs a recovery session with exactly those
// processes as the faulty set, rejoining them to the mesh on a consistent
// recovery line. The whole operation happens with the cluster halted, so
// survivors never observe a half-rehydrated process.
func (c *Cluster) Restart(globalLI bool) (Report, error) {
	down := c.Down()
	if len(down) == 0 {
		return Report{}, fmt.Errorf("runtime: restart with no crashed process")
	}
	return c.session(down, globalLI, true)
}

// session is the shared recovery-session body of Recover and Restart.
func (c *Cluster) session(faulty []int, globalLI bool, restart bool) (rep Report, err error) {
	// Refuse a malformed request before anything is disturbed: past this
	// point the session drops everything in transit.
	isFaulty := make([]bool, c.cfg.N)
	for _, f := range faulty {
		if f < 0 || f >= c.cfg.N {
			return Report{}, fmt.Errorf("runtime: faulty process %d out of range", f)
		}
		isFaulty[f] = true
	}

	c.cancelTransit()
	defer c.st.And(^uint64(1))
	c.Quiesce()
	// Frames parked behind a broken link carry the pre-session epoch too:
	// drop them rather than letting a later heal send on traffic the epoch
	// filter would discard anyway. Behind the drain, because a frame that was
	// in a worker's hands may have parked during it —
	// and the drain is also what lets purgeParked trust its down-link count
	// and skip the sweep when it reads zero.
	c.purgeParked()

	// All activity has ceased; it is now safe to read node state directly.
	for _, n := range c.nodes {
		n.mu.Lock()
	}
	defer func() {
		for _, n := range c.nodes {
			n.mu.Unlock()
		}
	}()
	// The epoch moved, so messages encoded against the compressors' state
	// were dropped: every pair must restart from a full set of entries on
	// every way out. node.ApplyLine does it on success; a session refused
	// or failed past this point does it here, still under the node locks.
	defer func() {
		if err != nil {
			for _, k := range c.kernels {
				k.ResetCompression()
			}
		}
	}()

	// A failed restart must leave every crashed process crashed — whether
	// rehydrating a later one failed or the line or a rollback did — so
	// Restart can be retried. A process rehydrated but never rolled back
	// holds a fresh collector and its application's pre-crash state: it must
	// not take traffic. Survivors are not undone: one ApplyLine rolled back
	// before the failure keeps that rollback.
	var restarted []int
	defer func() {
		if err != nil {
			for _, j := range restarted {
				c.nodes[j].k.CrashVolatile()
				c.nodes[j].down.Store(true)
			}
		}
	}()

	rep = Report{Faulty: append([]int(nil), faulty...)}
	for i, n := range c.nodes {
		if !n.down.Load() {
			continue
		}
		if !restart || !isFaulty[i] {
			// A session cannot compute a recovery line over a process whose
			// volatile state is gone unless it rehydrates that process.
			return Report{}, fmt.Errorf("runtime: p%d is crashed; restart it via Restart", i)
		}
		if err := n.k.Rehydrate(nil); err != nil {
			return Report{}, fmt.Errorf("runtime: restart p%d: %w", i, err)
		}
		n.down.Store(false)
		restarted = append(restarted, i)
		c.record(obs.Event{Kind: obs.EvRestart, P: i, Msg: n.k.LastStable(), Clock: n.k.DVRef()[i]})
	}
	rep.Restarted = restarted // ascending: the nodes are walked in order

	line, err := gc.ComputeLine(c.view, faulty)
	if err != nil {
		return Report{}, fmt.Errorf("runtime: %w", err)
	}
	rep.Line = line
	err = node.ApplyLine(c.kernels, line, globalLI, func(j, _ int) {
		rep.RolledBack = append(rep.RolledBack, j)
		// Recorded under every node lock, so the event follows all of j's
		// earlier events and precedes its later ones: History drops what it
		// cuts off, and the receives this orphans, when it next joins.
		c.record(obs.Event{Kind: obs.EvRollback, P: j, Msg: line[j], Clock: line[j]})
	})
	return rep, err
}
