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
// else asks which; cuts, wire seqs, the retransmit window, parking and retry
// live above it. send is called with the pair's lock held and returns how
// many leading frames of the run the wire took; a frame it took is either
// handed to the receiver's ingest exactly once (counted in Cluster.wireDeliv,
// its in-flight accounting ended) or reported lost through Cluster.onLinkDown
// after its stream died. sever kills the pair's current stream, if the wire
// has such a thing; waitReap returns once a dead stream's deliveries have
// ended and its losses are reported. Neither takes the pair's lock.
type wire interface {
	send(pl *pairLink, run []pending) (accepted int)
	sever(from, to int) bool
	waitReap(from, to int)
	close() error
}

// handoff is the in-process wire: the receiver's ingress ring is the
// channel. Nothing is encoded, copied or checked — ingest returns once the
// run is applied, which is the delivery — so nothing is ever refused and no
// stream exists to die.
type handoff struct{ c *Cluster }

func (h handoff) send(pl *pairLink, run []pending) int {
	c := h.c
	c.nodes[pl.to].ingest(run)
	c.wireDeliv[pl.from*c.cfg.N+pl.to].Add(int64(len(run)))
	c.inflight.Add(-len(run))
	return len(run)
}

func (handoff) sever(int, int) bool { return false }
func (handoff) waitReap(int, int)   {}
func (handoff) close() error        { return nil }

// frames is a pair's reused wire-format batch, built under the pair's lock.
type frames []transport.Message

// meshWire is the socket wire: one loopback TCP stream per talking pair
// (internal/transport), frames encoded on the way in and decoded zero-copy
// on the way out.
type meshWire struct {
	c    *Cluster
	mesh *transport.TCP

	// recvSeq is the next expected wire seq per pair: the receiver-side
	// dedup cursor (a stream can deliver a frame and die before the sender
	// learns of it; the retransmit then arrives twice).
	recvSeq []atomic.Uint64
}

// newMeshWire opens the cluster's TCP mesh. Frames a stream dies without
// delivering are reconciled by onLinkDown, which parks them for retransmit —
// so Quiesce cannot hang on a torn-down link.
func newMeshWire(c *Cluster) (*meshWire, error) {
	mesh, err := transport.NewTCPWith(c.cfg.N, transport.Options{DialTimeout: c.linkOpts.DialTimeout})
	if err != nil {
		return nil, err
	}
	mesh.OnLinkDown = c.onLinkDown
	mesh.OnFrameError = func(from, to int, err error) {
		// The mesh counts the severed link itself (transport.bad_frames).
		log.Printf("runtime: mesh link %d->%d severed on bad frame: %v", from, to, err)
	}
	mesh.SetObs(c.cfg.Obs.Registry)
	w := &meshWire{c: c, mesh: mesh, recvSeq: make([]atomic.Uint64, c.cfg.N*c.cfg.N)}
	if err := mesh.StartBatched(w.onWire); err != nil {
		_ = mesh.Close()
		return nil, err
	}
	return w, nil
}

// send fills the pair's reused frame batch in place, one frame per pending.
// The batch is cleared after every send, so each slot starts zero and only
// the fields a frame carries are written.
func (w *meshWire) send(pl *pairLink, run []pending) int {
	msgs := slices.Grow(pl.wire[:0], len(run))[:len(run)]
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
	pl.wire = msgs[:0]
	return accepted
}

func (w *meshWire) sever(from, to int) bool { return w.mesh.Sever(from, to) }
func (w *meshWire) waitReap(from, to int)   { w.mesh.WaitReap(from, to) }
func (w *meshWire) close() error            { return w.mesh.Close() }

// onWire feeds a non-empty batch of messages arriving from one TCP stream —
// all from the same (sender, receiver) pair, in stream order — into the
// receiver's ingress ring. The matching inflight increments happened at
// send. Everything here is a view: sparse entries, full vectors and
// payloads alias the readLoop's frame buffers (zero-copy decode), which
// the transport reuses once this callback returns — safe because ingest
// blocks until the batch is applied. For the same reason the decoded
// vectors must NOT feed the DV freelist: they are transport-owned memory,
// not CloneDV snapshots. The batch is built in the pair's inbound scratch:
// the pair's link exists, since every frame on the wire went through
// sendRun, and ingest has applied the batch before the next one arrives.
// Each pending is written in place in its scratch slot, which the clear at
// the end of the previous batch left zero.
func (w *meshWire) onWire(ms []transport.Message) {
	c := w.c
	defer c.inflight.Add(-len(ms))
	pair := ms[0].From*c.cfg.N + ms[0].To
	pl := c.links[pair].Load()
	if cap(pl.inbound) < len(ms) {
		pl.inbound = make([]pending, 0, len(ms))
	}
	batch := pl.inbound[:0]
	// Count every frame the wire handed over, duplicates included: the
	// sender's retransmit window tracks wire acceptances, so its prune
	// cursor must advance one-for-one with them.
	c.wireDeliv[pair].Add(int64(len(ms)))
	seqCur := &w.recvSeq[pair]
	for i := range ms {
		m := &ms[i]
		// Receiver-side dedup: a frame below the pair's expected wire seq is
		// a retransmit that raced its own original delivery — drop it. A gap
		// above it is a permanent loss (the frame fell past the sender's
		// retransmit coverage); advance over it, and let the
		// compressed-piggyback Ord verification fail loudly if the
		// configuration promised lossless FIFO. Same-pair deliveries are
		// serialized by the transport, so load-then-store is race-free.
		if exp := seqCur.Load(); m.Seq < exp {
			c.obs.LinkDups.Inc()
			continue
		}
		seqCur.Store(m.Seq + 1)
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
