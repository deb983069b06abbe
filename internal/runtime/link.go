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
// numbers, a bounded retransmit window, and parked-frame retry with
// exponential backoff, so a severed or partitioned link heals instead of
// silently losing every frame forever — on the TCP mesh and on the
// in-process hand-off alike; nothing here knows which wire it has.
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
//   - window holds exactly the frames accepted onto the wire and not yet
//     known delivered, oldest first; winBase is the cumulative
//     wire-acceptance index of its oldest frame and wireDeliv the cumulative
//     delivered count, so popping the oldest while winBase < wireDeliv
//     discards only frames the receiver has consumed.
//   - OnLinkDown moves the window's undelivered tail to the FRONT of
//     parked (frames that failed a later send are already there and are
//     newer), so parked stays in wire-seq order and a flush resends the
//     pair's frames in their original order.
//   - Parked frames hold no in-flight accounting: Quiesce does not wait on
//     a partition, only on frames actually on the wire or in delivery.
//   - The TCP wire's receiver drops any frame whose seq is below the pair's
//     expected seq (a retransmit raced its own delivery) and advances over
//     gaps (frames dropped past the window are permanent losses); together
//     with reap-gated redial this keeps delivery exactly-once and per-pair
//     FIFO. The in-process wire delivers as it accepts and has neither case.
type pairLink struct {
	from, to int

	blocked atomic.Bool // cut by BreakLink/Partition until the matching heal

	mu      sync.Mutex
	sendSeq uint64    // next wire seq to stamp
	window  frameRing // wire-accepted, not yet known-delivered, oldest first
	winBase int64     // cumulative wire-acceptance index of the window's oldest frame
	parked  []pending // awaiting reconnect, wire-seq order; no inflight held
	tries   int       // consecutive failed flushes (drives the backoff)
	timer   *time.Timer
	down    bool // a link-down flight event was recorded and not yet matched

	wire frames // the TCP wire's reused frame batch for this pair's sends
}

// frameRing is a pair's retransmit window: a FIFO of frames in a ring that
// doubles while it is too small — never past LinkOptions.Window, which
// wireSend enforces before it pushes — and is then reused in place, so a
// pair in steady state accepts and prunes frames without allocating. It
// keeps its high-water size; a pair that never talks never builds one.
type frameRing struct {
	buf  []pending // len is zero or a power of two
	head int       // slot of the oldest frame
	n    int       // frames held
}

func (r *frameRing) at(i int) *pending { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *frameRing) push(p *pending) {
	if r.n == len(r.buf) {
		grown := make([]pending, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = *r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.n++
	*r.at(r.n - 1) = *p
}

// pop drops the oldest frame, releasing the references its slot held.
func (r *frameRing) pop() {
	*r.at(0) = pending{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// LinkOptions tunes the link layer and the TCP wire's failure behavior
// (Config.Link). The zero value selects the defaults below.
type LinkOptions struct {
	// RetryBase and RetryCap shape the exponential retransmit backoff
	// (defaults 10ms and 1s): after the k-th consecutive failed flush the
	// pair waits about base<<k, jittered ±50%, capped, before retrying. It
	// is the only pacing there is: the wire refuses or fails at once.
	RetryBase time.Duration
	RetryCap  time.Duration
	// Window bounds the frames a pair retains for retransmit — parked and
	// wire-accepted alike (default 4096). Overflow drops frames
	// permanently, exactly like the pre-heal mesh lost them; compressed
	// clusters should size it above the largest burst a partition can
	// strand, since the piggyback verifier fails loudly on a genuine loss.
	Window int
	// DialTimeout and WriteTimeout forward to transport.Options; the
	// in-process wire has neither a dial nor a write to bound.
	DialTimeout  time.Duration
	WriteTimeout time.Duration
}

func (o LinkOptions) withDefaults() LinkOptions {
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = time.Second
	}
	if o.Window <= 0 {
		o.Window = 4096
	}
	return o
}

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
// timer, heals and onLinkDown.
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
	} else {
		c.wireSend(pl, run)
	}
	pl.mu.Unlock()
}

// wireSend gives one run to the wire, appends the accepted frames to the
// retransmit window and parks the rest. Called with pl.mu held, on frames
// that hold in-flight accounting (dispatch runs do; a flush re-adds it
// first). Returns how many frames the wire accepted.
func (c *Cluster) wireSend(pl *pairLink, run []pending) int {
	c.pruneWindow(pl)
	accepted := c.wire.send(pl, run)
	for k := 0; k < accepted; k++ {
		if pl.window.n >= c.linkOpts.Window {
			// Window overflow: the oldest wire-accepted frame loses its
			// retransmit coverage. It is not lost yet — only unprotected; if
			// its stream dies before delivering it, onLinkDown counts it
			// under the gap (linkLost) path.
			c.dropOldest(pl)
		}
		pl.window.push(&run[k])
	}
	if accepted < len(run) {
		c.park(pl, run[accepted:])
	}
	return accepted
}

// park appends frames to the pair's parked backlog (dropping overflow past
// the window bound as permanent losses), ends their in-flight accounting —
// parked frames must not hold it, or Quiesce would hang for as long as a
// partition stays open — and arms the retry timer. Called with pl.mu held.
func (c *Cluster) park(pl *pairLink, run []pending) {
	if !pl.down {
		pl.down = true
		c.flight.Record(obs.Event{Kind: obs.EvLinkDown, P: pl.from, Aux: pl.to, Msg: len(run)})
	}
	for k := range run {
		if c.closed.Load() || len(pl.parked)+pl.window.n >= c.linkOpts.Window {
			c.obs.LinkLost.Inc()
			c.recycle(run[k].pb)
		} else {
			pl.parked = append(pl.parked, run[k])
			c.obs.LinkParked.Add(1)
		}
	}
	c.inflight.Add(-len(run))
	c.armRetry(pl)
}

// pruneWindow discards the window prefix the receiver has consumed
// (wireDeliv counts every frame the wire handed over for the pair,
// duplicates included — and a retransmitted frame re-entered the window at
// its re-acceptance, so acceptances and deliveries stay 1:1). Called with
// pl.mu held.
func (c *Cluster) pruneWindow(pl *pairLink) {
	deliv := c.wireDeliv[pl.from*c.cfg.N+pl.to].Load()
	for pl.window.n > 0 && pl.winBase < deliv {
		c.dropOldest(pl)
	}
}

// dropOldest retires the window's oldest frame, returning its piggyback's
// buffer — snapshot or entries — to the freelist: the frame can no longer be
// retransmitted, so nothing reads it again. Called with pl.mu held.
func (c *Cluster) dropOldest(pl *pairLink) {
	c.recycle(pl.window.at(0).pb)
	pl.window.pop()
	pl.winBase++
}

// onLinkDown is the TCP wire's lost-frame reconciliation: the lost count is
// exact (sent minus delivered for the dead stream), and after a final prune
// the window holds exactly those frames — minus any that overflowed their
// retransmit coverage. The survivors move to the front of the parked
// backlog to await the reconnect; the overflow is a permanent loss and its
// accounting ends here.
func (c *Cluster) onLinkDown(from, to, lost int) {
	pl := c.link(from, to)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	c.pruneWindow(pl)
	if lost <= 0 {
		return
	}
	// keep counts the lost frames the window still covers: all it holds —
	// or its newest "lost", should it ever hold more, which cannot happen
	// while the transport's lost count is exact. The rest overflowed their
	// coverage.
	keep := min(lost, pl.window.n)
	dropped := lost - keep
	if !pl.down {
		pl.down = true
		c.flight.Record(obs.Event{Kind: obs.EvLinkDown, P: from, Aux: to, Msg: keep})
	}
	if c.closed.Load() {
		keep = 0
	}
	for pl.window.n > keep {
		c.dropOldest(pl)
		dropped++
	}
	if dropped > 0 {
		c.obs.LinkLost.Add(uint64(dropped))
	}
	if keep > 0 {
		parked := make([]pending, 0, keep+len(pl.parked))
		for ; pl.window.n > 0; pl.window.pop() {
			parked = append(parked, *pl.window.at(0))
		}
		pl.parked = append(parked, pl.parked...)
		c.obs.LinkParked.Add(int64(keep))
	}
	// Lost frames held in-flight accounting since their send; parked or
	// dropped, they are no longer in transit.
	c.inflight.Add(-lost)
	// Re-base to the delivered count: the lost frames' wire slots will never
	// deliver, so carrying their acceptance indices forward would leave the
	// prune cursor permanently behind. The count is final — the transport
	// reconciles a dead stream only after its deliveries have completed.
	pl.winBase = c.wireDeliv[from*c.cfg.N+to].Load()
	c.armRetry(pl)
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
	d := c.linkOpts.RetryBase
	for i := 0; i < pl.tries && d < c.linkOpts.RetryCap; i++ {
		d *= 2
	}
	if d > c.linkOpts.RetryCap {
		d = c.linkOpts.RetryCap
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
// wire: the frames re-enter in-flight accounting, ride the normal wireSend
// path (window, overflow parking), and on a wire refusal the remainder
// re-parks and the backoff deepens. A cut pair keeps its backlog for the
// heal, and a closed cluster abandons it — observed here, first, so Close
// during an open partition never waits out a backoff schedule. Called with
// pl.mu held.
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
		accepted := c.wireSend(pl, chunk)
		total += accepted
		if accepted < len(chunk) {
			// wireSend parked the chunk's remainder (releasing its
			// accounting); the untouched tail follows it.
			c.park(pl, run[len(chunk):])
			pl.tries++
			c.armRetry(pl)
			return
		}
		run = run[len(chunk):]
	}
	pl.tries = 0
	if pl.down {
		pl.down = false
		c.flight.Record(obs.Event{Kind: obs.EvLinkUp, P: pl.from, Aux: pl.to, Msg: total})
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
		c.recycle(pl.parked[i].pb)
	}
	if len(pl.parked) > 0 {
		c.obs.LinkParked.Add(-int64(len(pl.parked)))
		c.obs.LinkLost.Add(uint64(len(pl.parked)))
		pl.parked = nil
	}
	pl.tries = 0
	pl.down = false
}

// purgeParked drops every pair's backlog and stops its retry timer. A
// recovery session calls it with the cluster halted: the parked frames
// carry the pre-session epoch, so delivery would drop them anyway — exactly
// the "in transit at the failure" loss the model already permits. Close
// calls it to abandon what a partition stranded.
func (c *Cluster) purgeParked() {
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
// side has delivered what it will, onLinkDown has parked the rest. Returns
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
