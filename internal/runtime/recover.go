package runtime

import (
	"fmt"
	"sort"

	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vclock"
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
	if n.down {
		return fmt.Errorf("runtime: p%d is already crashed", i)
	}
	// Recorded before CrashVolatile wipes the vector, so the event carries
	// the clock at the instant of failure.
	c.flight.Record(obs.Event{Kind: obs.EvCrash, P: i, Clock: n.k.DVRef()[i]})
	n.k.CrashVolatile()
	n.down = true
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
// in a worker's hands or in an ingress ring: Quiesce waits for that.
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
	for i := range c.queues {
		purged += c.purgeQueue(&c.queues[i])
	}
	if purged > 0 {
		c.inflight.Add(-purged)
		c.obs.QueueDepth.Add(-int64(purged))
		c.obs.SessionPurged.Add(uint64(purged))
	}
	c.flight.Record(obs.Event{Kind: obs.EvSessionPurge, P: -1, Msg: purged, Aux: int(epoch)})
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
//  6. cut the rolled-back processes' recorded history at the line, resume.
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
	// drop them rather than letting a later heal retransmit traffic the epoch
	// filter would discard anyway. Behind the drain, because a frame that was
	// in a worker's hands or on a dying stream may have parked during it.
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

	rep = Report{Faulty: append([]int(nil), faulty...)}
	for i, n := range c.nodes {
		if !n.down {
			continue
		}
		if !restart || !isFaulty[i] {
			// A session cannot compute a recovery line over a process whose
			// volatile state is gone unless it rehydrates that process.
			return Report{}, fmt.Errorf("runtime: p%d is crashed; restart it via Restart", i)
		}
		if err := n.k.Rehydrate(nil); err != nil {
			// Re-crash whatever was already rehydrated: a failed restart
			// must leave every crashed process crashed, so the cluster
			// resumes in its pre-call state and Restart can be retried.
			for _, j := range rep.Restarted {
				c.nodes[j].k.CrashVolatile()
				c.nodes[j].down = true
			}
			return Report{}, fmt.Errorf("runtime: restart p%d: %w", i, err)
		}
		n.down = false
		rep.Restarted = append(rep.Restarted, i)
		c.flight.Record(obs.Event{Kind: obs.EvRestart, P: i, Msg: n.k.LastStable(), Clock: n.k.DVRef()[i]})
	}
	sort.Ints(rep.Restarted)

	line, err := gc.ComputeLine(haltedView{c}, faulty)
	if err != nil {
		return Report{}, fmt.Errorf("runtime: %w", err)
	}
	rep.Line = line
	err = node.ApplyLine(c.kernels, line, globalLI, func(j, _ int) {
		rep.RolledBack = append(rep.RolledBack, j)
		// The process's history is cut with it, at its stable component;
		// processes that keep their state keep their logs untouched, and the
		// receives this orphans are dropped when History next merges.
		c.cutVisited += c.nodes[j].log.CutAfterCheckpoint(line[j])
		c.flight.Record(obs.Event{Kind: obs.EvRollback, P: j, Msg: line[j], Clock: line[j]})
	})
	return rep, err
}

// haltedView adapts a fully locked cluster to gc.View. It must only be used
// while session holds every node lock — which is also why CurrentDV can lend
// the live vectors: ComputeLine only compares them, and cloning all n cost
// 8 KB of garbage per session at n = 32.
type haltedView struct{ c *Cluster }

func (v haltedView) N() int                    { return v.c.cfg.N }
func (v haltedView) LastStable(i int) int      { return v.c.nodes[i].k.LastStable() }
func (v haltedView) CurrentDV(i int) vclock.DV { return v.c.nodes[i].k.DVRef() }
func (v haltedView) Store(i int) storage.Store { return v.c.nodes[i].k.Store() }
