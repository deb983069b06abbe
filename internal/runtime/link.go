package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// This file is the link layer: the network of every cluster, between the
// sender pool and the wire (wire.go). It owns the administrative cut
// (BreakLink, Partition and their heals) and the backlog a cut parks, which
// the heal replays in order, so a partition is pure delay: never loss,
// duplication or reorder. Nothing here knows which wire it has.
//
// Invariants (the DESIGN.md "Partitions and healing" section states them
// with the argument; the code enforces them):
//
//   - Every send of a pair passes through the pair's pairLink with its
//     lock held, in dispatch order — so wire order equals dispatch order
//     equals (where the pooled queue's per-pair due-time clamp runs)
//     application send order.
//   - blocked is the cut, and the only record of it: written without the
//     pair's lock (a writer stuck on a full socket holds it, and must not
//     wedge BreakLink), read under it by whatever could put a frame on the
//     wire; cut() makes it true. A blocked pair parks what it is given, and
//     so does a pair with a backlog, which the heal flushes first.
//   - Parked frames hold no in-flight accounting: Quiesce does not wait on
//     a partition, only on frames actually on the wire or in delivery. The
//     backlog is unbounded, like the sender pool's heap: it is delay, and a
//     bound would turn it into loss.
//   - A backlog implies down, and park sets down before it ends the frames'
//     in-flight accounting; setDown, down's one writer, keeps the cluster's
//     count of down links, so a session behind Quiesce that reads zero
//     sweeps nothing.
type pairLink struct {
	from, to int

	blocked atomic.Bool // cut by BreakLink/Partition until the matching heal

	mu     sync.Mutex
	parked []pending // awaiting the heal, in send order; no inflight held
	down   bool      // a link-down flight event was recorded and not yet matched
}

// inflight counts messages in transit. It replaces the sync.WaitGroup the
// cluster used before links could heal: a heal legitimately re-adds a
// backlog's frames while Quiesce waits (a WaitGroup forbids Add during
// Wait), and this counter allows it — Quiesce returns at any zero
// crossing, and a flush that starts afterwards is new traffic, exactly
// like a send racing Quiesce always was.
type inflight struct {
	n    atomic.Int64
	mu   sync.Mutex
	zero sync.Cond
}

func (f *inflight) init() { f.zero.L = &f.mu }

func (f *inflight) Add(d int) {
	if f.n.Add(int64(d)) == 0 {
		f.mu.Lock()
		f.zero.Broadcast()
		f.mu.Unlock()
	}
}

func (f *inflight) Wait() {
	if f.n.Load() == 0 {
		return
	}
	f.mu.Lock()
	for f.n.Load() != 0 {
		f.zero.Wait()
	}
	f.mu.Unlock()
}

// link returns the (from,to) pairLink, creating it on first use (a pointer
// table: n² eager pairLinks would cost tens of MB at n=512 for pairs that
// mostly never talk). A new link is listed in c.created before its slot
// publishes it, so a sweep that starts after anybody could have parked a
// frame in it finds it.
func (c *Cluster) link(from, to int) *pairLink {
	slot := &c.links[from*c.cfg.N+to]
	if pl := slot.Load(); pl != nil {
		return pl
	}
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	pl := slot.Load()
	if pl == nil {
		pl = &pairLink{from: from, to: to}
		c.created = append(c.created, pl)
		slot.Store(pl)
	}
	return pl
}

// createdLinks returns the pairLinks that exist. The list is append-only, so
// the prefix handed out is never written again and is read without the lock.
func (c *Cluster) createdLinks() []*pairLink {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	return c.created
}

// sendRun pushes one dispatch run (same (from,to), dispatch order) through
// the pair's link: hand it to the wire, or park it behind the cut or the
// pair's backlog. Called from the dest queue's worker; the pairLink lock
// serializes it against heals and cuts.
func (c *Cluster) sendRun(from, to int, run []pending) {
	pl := c.link(from, to)
	pl.mu.Lock()
	if pl.blocked.Load() || len(pl.parked) > 0 {
		c.park(pl, run)
	} else {
		c.wire.send(pl, run)
	}
	pl.mu.Unlock()
}

// park appends frames to the pair's backlog — or drops them, on a closed
// cluster — and ends their in-flight accounting: parked frames must not
// hold it, or Quiesce would hang for as long as a partition stays open.
// Called with pl.mu held.
func (c *Cluster) park(pl *pairLink, run []pending) {
	if c.setDown(pl, true) {
		c.record(obs.Event{Kind: obs.EvLinkDown, P: pl.from, Aux: pl.to, Msg: len(run)})
	}
	if c.closed.Load() {
		c.lose(pl, run)
	} else {
		pl.parked = append(pl.parked, run...)
		c.obs.LinkParked.Add(int64(len(run)))
	}
	c.inflight.Add(-len(run))
}

// lose gives up frames that will never be sent, counting them lost and
// giving their piggyback buffers back to the sender. Called with pl.mu held.
func (c *Cluster) lose(pl *pairLink, run []pending) {
	for i := range run {
		c.nodes[pl.from].pool.Recycle(&run[i].pb)
	}
	c.obs.LinkLost.Add(uint64(len(run)))
}

// flushLocked pushes the pair's backlog onto the wire, oldest first: the
// frames re-enter in-flight accounting and go to the wire as sendRun's do.
// A cut pair keeps its backlog for the heal, and a closed cluster abandons
// it. Called with pl.mu held.
func (c *Cluster) flushLocked(pl *pairLink) {
	if c.closed.Load() {
		c.dropParkedLocked(pl)
		return
	}
	if len(pl.parked) == 0 || pl.blocked.Load() {
		return
	}
	run := pl.parked
	pl.parked = nil
	c.obs.LinkParked.Add(-int64(len(run)))
	c.inflight.Add(len(run))
	for rest := run; len(rest) > 0; {
		k := min(len(rest), maxDispatchBatch)
		c.wire.send(pl, rest[:k])
		rest = rest[k:]
	}
	if c.setDown(pl, false) {
		c.record(obs.Event{Kind: obs.EvLinkUp, P: pl.from, Aux: pl.to, Msg: len(run)})
	}
	c.obs.LinkRetransmits.Add(uint64(len(run)))
}

// dropParkedLocked abandons the pair's backlog (cluster closing, or a
// recovery session purging epoch-stale frames). Called with pl.mu held.
func (c *Cluster) dropParkedLocked(pl *pairLink) {
	if len(pl.parked) > 0 {
		c.lose(pl, pl.parked)
		c.obs.LinkParked.Add(-int64(len(pl.parked)))
		pl.parked = nil
	}
	c.setDown(pl, false)
}

// setDown is the one writer of pl.down: it keeps the cluster's count of down
// links (downLinks) in step and reports whether the state changed. Called
// with pl.mu held.
func (c *Cluster) setDown(pl *pairLink, v bool) bool {
	if pl.down == v {
		return false
	}
	pl.down = v
	d := int64(1)
	if !v {
		d = -1
	}
	c.downLinks.Add(d)
	return true
}

// purgeParked drops every pair's backlog. A recovery session calls it with
// the cluster halted: the parked frames carry the pre-session epoch, so
// delivery would drop them anyway — exactly the "in transit at the failure"
// loss the model already permits. Close calls it to abandon what a
// partition stranded.
//
// With no link down it returns at once, without a sweep: a backlog implies
// down, and behind Quiesce the count has seen every park that ended
// accounting Quiesce waited for (the invariants above; DESIGN.md, "What an
// idle session costs", gives the argument).
func (c *Cluster) purgeParked() {
	if c.downLinks.Load() == 0 {
		return
	}
	for _, pl := range c.createdLinks() {
		pl.mu.Lock()
		c.dropParkedLocked(pl)
		pl.mu.Unlock()
	}
}

// pair returns the (from,to) link for the cut API, or nil when no such pair
// can exist: an index outside the cluster, or a process paired with itself.
func (c *Cluster) pair(from, to int) *pairLink {
	if n := c.cfg.N; from < 0 || from >= n || to < 0 || to >= n || from == to {
		return nil
	}
	return c.link(from, to)
}

// setBlocked flips a pair's cut, keeping the partitioned-pairs count and
// gauge in step. Returns 1 if the state changed, 0 if not.
func (c *Cluster) setBlocked(pl *pairLink, v bool) int {
	if pl.blocked.Swap(v) == v {
		return 0
	}
	d := int64(1)
	if !v {
		d = -1
	}
	c.cutPairs.Add(d)
	c.obs.LinkPartitioned.Add(d)
	return 1
}

// cut blocks the given pairs, and when it returns no frame of theirs reaches
// a receiver until the heal (DESIGN.md "Why nothing crosses after the cut
// returns"). All blocks first, so the cut is atomic to senders. A sendRun
// that read "not blocked" just before may still be on its way to the wire,
// so cut passes through each pair's lock once: whoever held it has
// finished, whoever takes it next sees the block and parks. Then it drains
// each pair — waits until the receiver has applied every frame the wire
// took for it — so nothing that was on its way is still arriving. The cut
// loses nothing and touches no other pair: on TCP, the pair's connection
// and its reverse direction carry on. Returns how many pairs were open.
// Takes no node lock and must not be called under one (OnDeliver, Update):
// the drain waits for the receiver's deliveries.
func (c *Cluster) cut(pairs []*pairLink) (opened int) {
	for _, pl := range pairs {
		opened += c.setBlocked(pl, true)
	}
	for _, pl := range pairs {
		pl.mu.Lock() // the barrier: an empty critical section
		pl.mu.Unlock()
	}
	for _, pl := range pairs {
		c.wire.drain(pl.from, pl.to)
	}
	return opened
}

// heal lifts the given pairs' cuts, all of them first, and then pushes each
// pair's backlog synchronously, so that a heal followed by Quiesce drains it.
// Returns how many were cut.
func (c *Cluster) heal(pairs []*pairLink) (healed int) {
	for _, pl := range pairs {
		healed += c.setBlocked(pl, false)
	}
	for _, pl := range pairs {
		pl.mu.Lock()
		c.flushLocked(pl)
		pl.mu.Unlock()
	}
	return healed
}

// BreakLink cuts the directed pair from "from" to "to" until HealLink (or
// HealAll), modeling a link failure: when it returns, everything the pair
// had in transit has arrived and nothing more crosses. Every later send
// parks, holding no in-flight accounting, so Quiesce still returns, and is
// delivered, in order, after the heal. The reverse pair is not touched.
// Reports whether the pair was open; one that cannot exist (an index out of
// range, from == to) is not, and nothing changes.
func (c *Cluster) BreakLink(from, to int) bool {
	pl := c.pair(from, to)
	return pl != nil && c.cut([]*pairLink{pl}) == 1
}

// HealLink lifts one directed break and flushes that pair's backlog.
// Reports whether the pair was cut.
func (c *Cluster) HealLink(from, to int) bool {
	pl := c.pair(from, to)
	return pl != nil && c.heal([]*pairLink{pl}) == 1
}

// Partition cuts every directed pair that crosses the given groups,
// atomically: cross-group sends park until HealAll. Nodes absent from every
// group form one implicit extra group, so Partition([][]int{{3}}) isolates
// node 3, and two halves split-brain the cluster. Group members must be
// valid and distinct; on error nothing is cut.
func (c *Cluster) Partition(groups [][]int) error {
	n := c.cfg.N
	side := make([]int, n) // 1+group index; 0 is the implicit group
	for g, group := range groups {
		for _, p := range group {
			if p < 0 || p >= n {
				return fmt.Errorf("runtime: partition member %d outside %d-process cluster", p, n)
			}
			if side[p] != 0 {
				return fmt.Errorf("runtime: partition lists node %d twice", p)
			}
			side[p] = g + 1
		}
	}
	var cross []*pairLink
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if side[from] != side[to] {
				cross = append(cross, c.link(from, to))
			}
		}
	}
	c.cut(cross)
	return nil
}

// HealAll lifts every break and partition and synchronously flushes every
// pair's parked backlog, so HealAll followed by Quiesce observes the
// stranded frames delivered. Returns how many directed pairs healed. (A cut
// pair's link exists — cutting it made it — so the created list has it.)
func (c *Cluster) HealAll() int { return c.heal(c.createdLinks()) }

// PartitionedPairs reports how many directed pairs are currently cut by
// BreakLink or Partition.
func (c *Cluster) PartitionedPairs() int { return int(c.cutPairs.Load()) }
