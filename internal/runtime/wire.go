package runtime

import (
	"log"
	"slices"
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/vclock"
)

// wire is the seam under the link layer (link.go): what carries a pair's
// frames to the receiver's ingest. NewCluster picks one and nothing
// else asks which; cuts and the backlog behind them live above it. send is
// called with the pair's lock held, and takes the whole run: each frame is
// handed to the receiver's ingest exactly once or counted lost
// (runtime.link.lost) — refused, or stranded by a connection that died
// loudly — and its in-flight accounting ends either way; the run's
// piggyback buffers go back to their sender before send returns. drain
// returns once every frame the wire took for the pair has been applied by
// the receiver, or lost; it does not take the pair's lock.
type wire interface {
	send(pl *pairLink, run []pending)
	drain(from, to int)
	close() error
}

// handoff is the in-process wire: the pair's lock holder applies the run
// under the receiver's lock itself. Nothing is encoded, copied or checked —
// ingest returns once the run is applied, which is the delivery — so nothing
// is ever refused, and a pair is drained whenever its lock is free.
type handoff struct{ c *Cluster }

func (h handoff) send(pl *pairLink, run []pending) {
	c := h.c
	c.nodes[pl.to].ingest(run)
	for i := range run {
		c.nodes[pl.from].pool.Recycle(&run[i].pb)
	}
	c.inflight.Add(-len(run))
}

func (handoff) drain(int, int) {}
func (handoff) close() error   { return nil }

// meshWire is the socket wire: one loopback TCP connection per pair of
// processes that talks (internal/transport), carrying both directions for
// the cluster's life, frames encoded on the way in and decoded zero-copy on
// the way out. A frame is encoded by the time SendBatch returns, so its
// piggyback buffer goes back to the sender then; the mesh delivers what it
// accepted, in order, or reports it lost through onLinkDown.
type meshWire struct {
	c     *Cluster
	mesh  *transport.TCP
	pairs []atomic.Pointer[meshPair] // from*n+to, built on first use
}

// meshPair is the TCP wire's scratch for one directed pair: out, the
// reused wire-format batch, is the sender's, under the pair's link lock;
// inbound, the reused batch for arrivals, is the receiver's and takes no
// lock — the transport hands a direction's batches over one at a time, from
// its one reader.
type meshPair struct {
	out     []transport.Message
	inbound []pending
}

// newMeshWire opens the cluster's TCP mesh. Frames a connection dies
// without delivering are reconciled by onLinkDown, so Quiesce cannot hang
// on a dead link.
func newMeshWire(c *Cluster) (*meshWire, error) {
	mesh, err := transport.NewTCP(c.cfg.N)
	if err != nil {
		return nil, err
	}
	w := &meshWire{c: c, mesh: mesh, pairs: make([]atomic.Pointer[meshPair], c.cfg.N*c.cfg.N)}
	mesh.OnLinkDown = w.onLinkDown
	mesh.OnFrameError = func(from, to int, err error) {
		// The mesh counts the killed link itself (transport.bad_frames).
		log.Printf("runtime: mesh link %d->%d killed on bad frame: %v", from, to, err)
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

// send fills the pair's reused frame batch in place, one frame per
// pending, hands it to the mesh, and gives every piggyback back to the
// sender: SendBatch has encoded them all, or refused them. The batch is
// cleared after every send, so each slot starts zero and only the fields a
// frame carries are written.
func (w *meshWire) send(pl *pairLink, run []pending) {
	c, mp := w.c, w.pair(pl.from, pl.to)
	msgs := slices.Grow(mp.out[:0], len(run))[:len(run)]
	for k := range run {
		p, m := &run[k], &msgs[k]
		m.From, m.To, m.Msg, m.Epoch = pl.from, pl.to, p.msg, p.epoch
		m.Index, m.Ord, m.Payload = p.pb.Index, p.pb.Ord, p.payload
		if p.pb.DV != nil {
			m.DV = p.pb.DV
		} else {
			m.Sparse, m.Entries = true, p.pb.Entries
		}
	}
	accepted, _ := w.mesh.SendBatch(pl.from, pl.to, msgs)
	clear(msgs)
	mp.out = msgs[:0]
	for k := range run {
		c.nodes[pl.from].pool.Recycle(&run[k].pb)
	}
	if refused := len(run) - accepted; refused > 0 {
		c.obs.LinkLost.Add(uint64(refused))
		c.inflight.Add(-refused)
	}
}

func (w *meshWire) drain(from, to int) { w.mesh.Drain(from, to) }
func (w *meshWire) maxPayload() int    { return transport.MaxPayload(w.c.cfg.N) }
func (w *meshWire) close() error       { return w.mesh.Close() }

// onLinkDown is the mesh's lost-frame reconciliation: lost frames the
// connection accepted will never be delivered — it died loudly, or the mesh
// closed — so they end their in-flight accounting as losses.
func (w *meshWire) onLinkDown(_, _, lost int) {
	w.c.obs.LinkLost.Add(uint64(lost))
	w.c.inflight.Add(-lost)
}

// onWire applies a non-empty batch of messages arriving from one TCP stream —
// all from the same (sender, receiver) pair, in stream order, which the
// mesh's reader checks — under the receiver's lock (ingest). On a compressed
// cluster every piggyback is compressed, a full vector included: the
// sender ships the whole vector when it is the smaller form. The matching
// inflight increments happened at send. Everything here is a view: sparse
// entries, full vectors and payloads alias the readLoop's frame buffers
// (zero-copy decode), which the transport reuses once this callback returns
// — safe because ingest blocks until the batch is applied. For the same
// reason the decoded vectors must NOT feed the DV freelist: they are
// transport-owned memory, not CloneDV snapshots. The batch is built in the
// pair's inbound scratch, which ingest has applied before the next batch
// arrives. Each pending is written in place in its scratch slot, which the
// clear at the end of the previous batch left zero.
func (w *meshWire) onWire(ms []transport.Message) {
	c := w.c
	defer c.inflight.Add(-len(ms))
	mp := w.pair(ms[0].From, ms[0].To)
	if cap(mp.inbound) < len(ms) {
		mp.inbound = make([]pending, 0, len(ms))
	}
	batch := mp.inbound[:0]
	for i := range ms {
		m := &ms[i]
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
		p.pb.Index, p.pb.From, p.pb.Ord = m.Index, m.From, m.Ord
		if m.Sparse {
			p.pb.Compressed, p.pb.Entries = true, m.Entries
		} else {
			p.pb.Compressed, p.pb.DV = c.cfg.Compress, vclock.DV(m.DV)
		}
	}
	if len(batch) > 0 {
		c.nodes[ms[0].To].ingest(batch)
	}
	clear(batch) // drop the view references before the scratch rests
}
