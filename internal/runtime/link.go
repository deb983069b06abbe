package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the link layer: the network of every cluster, between the
// sender pool and the wire (wire.go). It owns the administrative cut
// (BreakLink, Partition and their heals), per-(from,to) wire sequence
// numbers, and the parked backlog with its retry under exponential backoff,
// so a cut or a dead link heals instead of silently losing every frame
// forever. Nothing here knows which wire it has: what a wire keeps to
// replay frames it accepted and then lost is the wire's own, and it hands
// such frames back through requeue.
//
// Invariants (the DESIGN.md "Partitions and healing" section states them
// with the argument; the code enforces them):
//
//   - Every send of a pair passes through the pair's pairLink with its
//     lock held, in dispatch order, and is stamped with the next wire seq
//     there — so wire seq order equals dispatch order equals (where the
//     pooled queue's per-pair due-time clamp runs) application send order.
//   - blocked is the cut, and the only record of it: written without the
//     pair's lock (a writer stuck on a full socket holds it, and must not
//     wedge BreakLink), read under it by whatever could put a frame on the
//     wire; cut() makes it true. A blocked pair parks what it is given and
//     arms no timer: it waits for the heal.
//   - Frames a wire hands back go to the FRONT of parked (frames that
//     failed a later send are already there and are newer), so parked stays
//     in wire-seq order and a flush resends the pair's frames in their
//     original order.
//   - Parked frames hold no in-flight accounting: Quiesce does not wait on
//     a partition, only on frames actually on the wire or in delivery.
//   - A backlog, an armed timer and a nonzero tries each imply down, and
//     whatever parks sets down before it ends the frames' in-flight
//     accounting; setDown, down's one writer, keeps the cluster's count of
//     down links, so a session behind Quiesce that reads zero sweeps nothing.
type pairLink struct {
	from, to int

	blocked atomic.Bool // cut by BreakLink/Partition until the matching heal

	mu      sync.Mutex
	sendSeq uint64    // next wire seq to stamp
	parked  []pending // awaiting reconnect, wire-seq order; no inflight held
	tries   int       // consecutive failed flushes (drives the backoff)
	timer   *time.Timer
	down    bool // a link-down flight event was recorded and not yet matched
}

// The link layer's schedule and bound.
//
// retryBase and retryCap shape the exponential retransmit backoff: after
// the k-th consecutive failed flush the pair waits about retryBase<<k,
// jittered ±50%, capped at retryCap, before retrying. It is the only pacing
// there is: the wire refuses or fails at once.
//
// linkWindow bounds the frames a pair retains for retransmit: at most
// linkWindow parked and, on a wire that keeps the frames it accepted until
// they are known delivered, at most linkWindow there — two bounds, each on
// its own, not one on their sum. Overflow drops frames permanently, and on
// a compressed cluster the piggyback verifier then fails loudly, so it sits
// well above the largest burst a partition strands in the tests and the
// chaos plans.
const (
	retryBase  = 10 * time.Millisecond
	retryCap   = time.Second
	linkWindow = 4096
)

// inflight counts messages in transit. It replaces the sync.WaitGroup the
// cluster used before links could heal: retry timers legitimately re-add
// in-flight frames while Quiesce waits (a WaitGroup forbids Add during
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
// the pair's link: stamp wire seqs, then either hand the run to the wire or
// park it behind the cut or the pair's existing backlog. Called from the dest
// queue's worker; the pairLink lock serializes it against the pair's retry
// timer, heals and whatever the wire hands back.
func (c *Cluster) sendRun(from, to int, run []pending) {
	pl := c.link(from, to)
	pl.mu.Lock()
	for i := range run {
		run[i].wseq = pl.sendSeq
		pl.sendSeq++
	}
	if pl.blocked.Load() || len(pl.parked) > 0 || pl.timer != nil {
		// The pair is cut, or the link is down (or a retry is pending):
		// joining the parked tail instead of racing the flush keeps the
		// pair's wire order intact.
		c.park(pl, run)
	} else if accepted := c.wire.send(pl, run); accepted < len(run) {
		c.park(pl, run[accepted:])
	}
	pl.mu.Unlock()
}

// park appends frames to the pair's parked backlog (dropping overflow past
// the window bound as permanent losses), ends their in-flight accounting —
// parked frames must not hold it, or Quiesce would hang for as long as a
// partition stays open — and arms the retry timer. Called with pl.mu held.
func (c *Cluster) park(pl *pairLink, run []pending) {
	if c.setDown(pl, true) {
		c.record(obs.Event{Kind: obs.EvLinkDown, P: pl.from, Aux: pl.to, Msg: len(run)})
	}
	for k := range run {
		if c.closed.Load() || len(pl.parked) >= linkWindow {
			c.obs.LinkLost.Inc()
			c.recycle(pl.from, &run[k].pb)
		} else {
			pl.parked = append(pl.parked, run[k])
			c.obs.LinkParked.Add(1)
		}
	}
	// Armed before the accounting ends, so a Quiesce that returns sees the
	// backlog's retry scheduled.
	c.armRetry(pl)
	c.inflight.Add(-len(run))
}

// requeue takes back lost frames the wire had accepted: lost counts them,
// back holds the ones the wire kept copies of, oldest first, in a slice the
// backlog may keep, and the rest are permanent losses. back goes to the
// front of the backlog (dropped too on a closed cluster), and the frames'
// in-flight accounting ends after the retry is armed, as in park. Called
// with pl.mu held.
func (c *Cluster) requeue(pl *pairLink, back []pending, lost int) {
	if c.setDown(pl, true) {
		c.record(obs.Event{Kind: obs.EvLinkDown, P: pl.from, Aux: pl.to, Msg: len(back)})
	}
	if c.closed.Load() {
		for i := range back {
			c.recycle(pl.from, &back[i].pb)
		}
		back = nil
	}
	if dropped := lost - len(back); dropped > 0 {
		c.obs.LinkLost.Add(uint64(dropped))
	}
	if len(back) > 0 {
		pl.parked = append(back, pl.parked...)
		c.obs.LinkParked.Add(int64(len(back)))
	}
	c.armRetry(pl)
	c.inflight.Add(-lost)
}

// armRetry schedules the pair's next flush attempt with exponential
// backoff and ±50% jitter from the cluster's seeded RNG. Called with pl.mu
// held; no-op if a retry is already pending, the backlog is empty, the pair
// is cut (the heal flushes it; until then every attempt would be refused) or
// the cluster is closed.
func (c *Cluster) armRetry(pl *pairLink) {
	if pl.timer != nil || len(pl.parked) == 0 || pl.blocked.Load() || c.closed.Load() {
		return
	}
	d := retryBase
	for i := 0; i < pl.tries && d < retryCap; i++ {
		d *= 2
	}
	d = min(d, retryCap)
	if c.holdRetries {
		d = time.Hour
	}
	c.jitMu.Lock()
	d = d/2 + time.Duration(c.jit.Int63n(int64(d)))
	c.jitMu.Unlock()
	c.obs.LinkBackoffNs.Observe(d.Nanoseconds())
	pl.timer = time.AfterFunc(d, func() {
		pl.mu.Lock()
		pl.timer = nil
		c.flushLocked(pl) // one attempt, re-arming on failure
		pl.mu.Unlock()
	})
}

// stopRetry disarms the pair's retry timer. Called with pl.mu held. A body
// already fired and waiting for the lock still runs, and finds what
// flushLocked checks for: nothing to send, or a cut.
func stopRetry(pl *pairLink) {
	if pl.timer != nil {
		pl.timer.Stop()
		pl.timer = nil
	}
}

// flushLocked attempts to push the pair's parked backlog back onto the
// wire: the frames re-enter in-flight accounting and go to the wire as
// sendRun's do, and on a wire refusal the remainder re-parks and the backoff
// deepens. A cut pair keeps its backlog for the heal, and a closed cluster
// abandons it — observed here, first, so Close during an open partition
// never waits out a backoff schedule. Called with pl.mu held.
func (c *Cluster) flushLocked(pl *pairLink) {
	if c.closed.Load() {
		c.dropParkedLocked(pl)
		return
	}
	if len(pl.parked) == 0 {
		pl.tries = 0
		return
	}
	if pl.blocked.Load() {
		return
	}
	run := pl.parked
	pl.parked = nil
	c.obs.LinkParked.Add(-int64(len(run)))
	c.inflight.Add(len(run))
	total := 0
	for len(run) > 0 {
		chunk := run
		if len(chunk) > maxDispatchBatch {
			chunk = chunk[:maxDispatchBatch]
		}
		accepted := c.wire.send(pl, chunk)
		total += accepted
		if accepted < len(chunk) {
			c.park(pl, run[accepted:]) // the refused remainder and the untouched tail
			pl.tries++
			c.armRetry(pl)
			return
		}
		run = run[len(chunk):]
	}
	pl.tries = 0
	if c.setDown(pl, false) {
		c.record(obs.Event{Kind: obs.EvLinkUp, P: pl.from, Aux: pl.to, Msg: total})
	}
	if total > 0 {
		c.obs.LinkRetransmits.Add(uint64(total))
		c.obs.LinkReconnects.Inc()
	}
}

// dropParkedLocked abandons the pair's backlog (cluster closing, or a
// recovery session purging epoch-stale frames). Called with pl.mu held.
func (c *Cluster) dropParkedLocked(pl *pairLink) {
	stopRetry(pl)
	for i := range pl.parked {
		c.recycle(pl.from, &pl.parked[i].pb)
	}
	if len(pl.parked) > 0 {
		c.obs.LinkParked.Add(-int64(len(pl.parked)))
		c.obs.LinkLost.Add(uint64(len(pl.parked)))
		pl.parked = nil
	}
	pl.tries = 0
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

// purgeParked drops every pair's backlog and stops its retry timer. A
// recovery session calls it with the cluster halted: the parked frames
// carry the pre-session epoch, so delivery would drop them anyway — exactly
// the "in transit at the failure" loss the model already permits. Close
// calls it to abandon what a partition stranded.
//
// With no link down it returns at once, without a sweep: everything the
// sweep resets implies down, and behind Quiesce the count has seen every
// park that ended accounting Quiesce waited for (the invariants above;
// DESIGN.md, "What an idle session costs", gives the argument).
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
// returns"). All blocks first, so the cut is atomic to senders; then the
// streams die. A sendRun or flush that read "not blocked" just before may
// still be on its way to the wire — and, its stream gone and reaped, may
// dial a fresh one — so cut passes through each pair's lock once: whoever
// held it has finished, whoever takes it next sees the block. What such a
// straggler dialed is severed again, and the reap awaited: the receiving
// side has delivered what it will, and the wire has handed back the rest.
// On a wire whose connection carries both directions of a pair (TCP), the
// sever kills the reverse direction's stream too, and the reap awaited is
// both directions': the reverse direction's lost frames are back with its
// link, whose retry resends them on a new connection with no heal. Returns
// how many pairs were open. Takes no node lock and must not be called under
// one (OnDeliver, Update): the barrier may wait for a receiver's drain.
func (c *Cluster) cut(pairs []*pairLink) (opened int) {
	for _, pl := range pairs {
		opened += c.setBlocked(pl, true)
	}
	for _, pl := range pairs {
		c.wire.sever(pl.from, pl.to)
	}
	for _, pl := range pairs {
		pl.mu.Lock()
		stopRetry(pl) // whatever it would retry waits for the heal now
		pl.mu.Unlock()
	}
	for _, pl := range pairs {
		c.wire.sever(pl.from, pl.to)
		c.wire.waitReap(pl.from, pl.to)
	}
	return opened
}

// heal lifts the given pairs' cuts, all of them first, and then pushes each
// pair's backlog synchronously, so that a heal followed by Quiesce drains it.
// One attempt a pair: nothing refuses a healed pair but a dial that really
// fails, which the background timer is for. Returns how many were cut.
func (c *Cluster) heal(pairs []*pairLink) (healed int) {
	for _, pl := range pairs {
		healed += c.setBlocked(pl, false)
	}
	for _, pl := range pairs {
		pl.mu.Lock()
		stopRetry(pl)
		c.flushLocked(pl)
		pl.mu.Unlock()
	}
	return healed
}

// BreakLink cuts the directed pair from "from" to "to" until HealLink (or
// HealAll), modeling a link failure: when it returns nothing more crosses.
// What the pair had in transit and every later send park for retransmit and
// are replayed after the heal, holding no in-flight accounting meanwhile, so
// Quiesce still returns. Reports whether the pair was open; one that cannot
// exist (an index out of range, from == to) is not, and nothing changes.
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
