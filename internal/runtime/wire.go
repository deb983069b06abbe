package runtime

import (
	"log"
	"slices"
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/vclock"
)

// wire is the seam under the link layer (link.go): what carries a pair's
// frames to the receiver's ingress ring. NewCluster picks one and nothing
// else asks which; cuts, wire seqs, parking and retry live above it. send is
// called with the pair's lock held and returns how many leading frames of
// the run the wire took; a frame it took is either handed to the receiver's
// ingest exactly once, its in-flight accounting ended, or — on a wire whose
// stream can die after taking it — handed back to the link through
// Cluster.requeue. sever kills the pair's current stream, if the wire has
// such a thing; waitReap returns once a dead stream's deliveries have ended
// and its losses are handed back. Neither takes the pair's lock.
type wire interface {
	send(pl *pairLink, run []pending) (accepted int)
	sever(from, to int) bool
	waitReap(from, to int)
	close() error
}

// handoff is the in-process wire: the receiver's ingress ring is the
// channel. Nothing is encoded, copied or checked — ingest returns once the
// run is applied, which is the delivery — so nothing is ever refused, no
// stream exists to die, and nothing is kept to replay: the run's piggyback
// buffers go back to their sender at once.
type handoff struct{ c *Cluster }

func (h handoff) send(pl *pairLink, run []pending) int {
	c := h.c
	c.nodes[pl.to].ingest(run)
	for i := range run {
		c.recycle(pl.from, &run[i].pb)
	}
	c.inflight.Add(-len(run))
	return len(run)
}

func (handoff) sever(int, int) bool { return false }
func (handoff) waitReap(int, int)   {}
func (handoff) close() error        { return nil }

// meshWire is the socket wire: one loopback TCP connection per pair of
// processes that talks (internal/transport), carrying both directions,
// frames encoded on the way in and decoded zero-copy on the way out. State
// here is per direction, as the link's is: a connection can die holding
// frames it accepted either way — cutting one direction kills the other's
// stream too — so this wire keeps each direction's frames until they are
// known delivered and hands a dead stream's back to that direction's link
// (onLinkDown), whose retry resends them with no heal needed.
type meshWire struct {
	c     *Cluster
	mesh  *transport.TCP
	pairs []atomic.Pointer[meshPair] // from*n+to, built on first use
}

// meshPair is the TCP wire's state for one directed pair. The sender's half
// is guarded by the pair's link lock, which send and onLinkDown hold: window
// holds exactly the frames accepted and not yet known delivered, oldest
// first, and winBase is the cumulative acceptance index of its oldest, so
// popping while winBase < deliv discards only frames the receiver consumed.
// The receiver's half takes no lock — the transport hands a pair's batches
// over one at a time, and a redial waits for the dead stream's reader — and
// recvSeq, the next expected wire seq, is its dedup cursor: a frame below it
// is a retransmit that raced its own delivery (a stream can deliver and die
// before the sender learns of it) and is dropped, and a gap above it is a
// frame that overflowed the window, a permanent loss, skipped. With
// reap-gated redial this keeps delivery exactly-once and per-pair FIFO.
type meshPair struct {
	window  frameRing
	winBase int64
	out     []transport.Message // reused wire-format batch for sends
	deliv   atomic.Int64        // frames handed to the receiver, duplicates included
	recvSeq uint64
	inbound []pending // reused batch for arrivals
}

// frameRing is a pair's retransmit window: a FIFO of frames in a ring that
// doubles while it is too small — never past linkWindow, which send
// enforces before it pushes — and is then reused in place, so a pair in
// steady state accepts and prunes frames without allocating. It keeps its
// high-water size; a pair that never talks never builds one.
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

// newMeshWire opens the cluster's TCP mesh. Frames a stream dies without
// delivering are reconciled by onLinkDown, which hands them back to the link
// for retransmit — so Quiesce cannot hang on a torn-down link.
func newMeshWire(c *Cluster) (*meshWire, error) {
	mesh, err := transport.NewTCP(c.cfg.N)
	if err != nil {
		return nil, err
	}
	w := &meshWire{c: c, mesh: mesh, pairs: make([]atomic.Pointer[meshPair], c.cfg.N*c.cfg.N)}
	mesh.OnLinkDown = w.onLinkDown
	mesh.OnFrameError = func(from, to int, err error) {
		// The mesh counts the severed link itself (transport.bad_frames).
		log.Printf("runtime: mesh link %d->%d severed on bad frame: %v", from, to, err)
	}
	mesh.SetObs(c.cfg.Obs.Registry)
	if err := mesh.StartBatched(w.onWire); err != nil {
		_ = mesh.Close()
		return nil, err
	}
	return w, nil
}

// pair returns the (from,to) meshPair, creating it on first use.
func (w *meshWire) pair(from, to int) *meshPair {
	slot := &w.pairs[from*w.c.cfg.N+to]
	if mp := slot.Load(); mp != nil {
		return mp
	}
	slot.CompareAndSwap(nil, &meshPair{})
	return slot.Load()
}

// send prunes the pair's window, fills its reused frame batch in place, one
// frame per pending, and moves the frames the mesh accepted into the window.
// The batch is cleared after every send, so each slot starts zero and only
// the fields a frame carries are written.
func (w *meshWire) send(pl *pairLink, run []pending) int {
	mp := w.pair(pl.from, pl.to)
	w.pruneWindow(pl.from, mp)
	msgs := slices.Grow(mp.out[:0], len(run))[:len(run)]
	for k := range run {
		p, m := &run[k], &msgs[k]
		m.From, m.To, m.Msg, m.Epoch = pl.from, pl.to, p.msg, p.epoch
		m.Index, m.Payload, m.Seq = p.pb.Index, p.payload, p.wseq
		if p.pb.Compressed {
			m.Sparse, m.Ord, m.Entries = true, p.pb.Ord, p.pb.Entries
		} else {
			m.DV = p.pb.DV
		}
	}
	accepted, _ := w.mesh.SendBatch(pl.from, pl.to, msgs)
	clear(msgs)
	mp.out = msgs[:0]
	for k := 0; k < accepted; k++ {
		if mp.window.n >= linkWindow {
			// Window overflow: the oldest accepted frame loses its
			// retransmit coverage. It is not lost yet — only unprotected; if
			// its stream dies before delivering it, onLinkDown counts it
			// among the permanent losses.
			w.dropOldest(pl.from, mp)
		}
		mp.window.push(&run[k])
	}
	return accepted
}

func (w *meshWire) sever(from, to int) bool { return w.mesh.Sever(from, to) }
func (w *meshWire) waitReap(from, to int)   { w.mesh.WaitReap(from, to) }
func (w *meshWire) close() error            { return w.mesh.Close() }

// pruneWindow discards the window prefix the receiver has consumed (deliv
// counts every frame the wire handed over for the pair, duplicates included
// — and a retransmitted frame re-entered the window at its re-acceptance, so
// acceptances and deliveries stay 1:1). Called with the pair's link lock
// held.
func (w *meshWire) pruneWindow(from int, mp *meshPair) {
	deliv := mp.deliv.Load()
	for mp.window.n > 0 && mp.winBase < deliv {
		w.dropOldest(from, mp)
	}
}

// dropOldest retires the window's oldest frame, returning its piggyback's
// buffer — snapshot or entries — to the sender's freelist: the frame can no
// longer be retransmitted, so nothing reads it again. Called with the pair's
// link lock held.
func (w *meshWire) dropOldest(from int, mp *meshPair) {
	w.c.recycle(from, &mp.window.at(0).pb)
	mp.window.pop()
	mp.winBase++
}

// onLinkDown is the mesh's lost-frame reconciliation: the lost count is exact
// (sent minus delivered for the dead stream), and after a final prune the
// window holds exactly those frames, minus any that overflowed their
// retransmit coverage. They go back to the link to await the reconnect.
func (w *meshWire) onLinkDown(from, to, lost int) {
	c := w.c
	pl, mp := c.link(from, to), w.pair(from, to)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	w.pruneWindow(from, mp)
	if lost <= 0 {
		return
	}
	// The window covers min(lost, n) of them: all it holds — or its newest
	// "lost", should it ever hold more, which an exact count rules out.
	keep := min(lost, mp.window.n)
	for mp.window.n > keep {
		w.dropOldest(from, mp)
		c.obs.LinkLost.Inc()
	}
	back := make([]pending, 0, keep)
	for ; mp.window.n > 0; mp.window.pop() {
		back = append(back, *mp.window.at(0))
	}
	// Re-base to the delivered count: the lost frames' wire slots will never
	// deliver, so carrying their acceptance indices forward would leave the
	// prune cursor permanently behind. The count is final — the transport
	// reconciles a dead stream only after its deliveries have completed.
	mp.winBase = mp.deliv.Load()
	c.requeue(pl, back, lost)
}

// onWire feeds a non-empty batch of messages arriving from one TCP stream —
// all from the same (sender, receiver) pair, in stream order — into the
// receiver's ingress ring. The matching inflight increments happened at
// send. Everything here is a view: sparse entries, full vectors and
// payloads alias the readLoop's frame buffers (zero-copy decode), which
// the transport reuses once this callback returns — safe because ingest
// blocks until the batch is applied. For the same reason the decoded
// vectors must NOT feed the DV freelist: they are transport-owned memory,
// not CloneDV snapshots. The batch is built in the pair's inbound scratch,
// which ingest has applied before the next batch arrives. Each pending is
// written in place in its scratch slot, which the clear at the end of the
// previous batch left zero.
func (w *meshWire) onWire(ms []transport.Message) {
	c := w.c
	defer c.inflight.Add(-len(ms))
	mp := w.pair(ms[0].From, ms[0].To)
	if cap(mp.inbound) < len(ms) {
		mp.inbound = make([]pending, 0, len(ms))
	}
	batch := mp.inbound[:0]
	// Count every frame the wire handed over, duplicates included: the
	// sender's retransmit window tracks wire acceptances, so its prune
	// cursor must advance one-for-one with them.
	mp.deliv.Add(int64(len(ms)))
	for i := range ms {
		m := &ms[i]
		// Dedup (meshPair). A gap skipped is a permanent loss, which the
		// compressed-piggyback Ord check fails loudly on if the
		// configuration promised lossless FIFO.
		if m.Seq < mp.recvSeq {
			c.obs.LinkDups.Inc()
			continue
		}
		mp.recvSeq = m.Seq + 1
		if err := m.Validate(c.cfg.N); err != nil {
			// Structurally sound but semantically damaged — an entry index
			// outside the cluster, a wrong-size vector: the frame is
			// dropped (a lost message, which the model permits) before it
			// can reach a kernel's dependency vector.
			continue
		}
		batch = batch[:len(batch)+1]
		p := &batch[len(batch)-1]
		p.msg, p.epoch, p.payload, p.from = m.Msg, m.Epoch, m.Payload, m.From
		p.pb.Index = m.Index
		if m.Sparse {
			p.pb.Compressed, p.pb.From, p.pb.Ord, p.pb.Entries = true, m.From, m.Ord, m.Entries
		} else {
			p.pb.DV = vclock.DV(m.DV)
		}
	}
	if len(batch) > 0 {
		c.nodes[ms[0].To].ingest(batch)
	}
	clear(batch) // drop the view references before the scratch rests
}
