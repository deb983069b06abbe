package runtime

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the egress fence: the output-commit rule at a node's edge.
// A node's store reports durability asynchronously (storage.Store's
// NotifyDurable), so a checkpoint taken on the delivery or send path is only
// staged when the kernel call returns, and the node goes on delivering and
// computing without waiting for the flush. What must wait is knowledge of
// the checkpoint leaving the node: a peer may collect on the strength of
// DV[p] = k+1, so checkpoint k of p has to be stable before anyone can learn
// that entry (Theorem 4). Every outgoing frame is therefore stamped with the
// stage sequence number of its sender's newest checkpoint — the ticket — and
// held here, in send order, until the store has reported that number durable;
// a crash in between loses only state nobody has seen. A store with nothing
// ever pending (MemStore) stages sequence 0 for ever and the fence never
// closes. DESIGN.md, "Output commit: the egress fence", has the argument.
//
// Lock order: n.mu → fence.mu → destQueue.mu. The store's committer calls
// onDurable holding no store lock and takes only the last two, never n.mu — a
// node blocked in the store's staging back-pressure under its own lock is
// waiting for that committer.

// fence is one node's hold-back queue and its durability cursor. Node.staged,
// the ticket source, lives beside n.mu, which guards it.
type fence struct {
	mu      sync.Mutex
	durable uint64    // highest stage sequence number the store has reported durable
	err     error     // sticky: the store failed, the fence never opens again
	q       []fenced  // held frames, in send order; tickets ascend
	settled sync.Cond // Node.Checkpoint and NewCluster wait here for durable to advance
}

// fenced is one held frame: what enqueue needs, the ticket that releases it,
// and when it was held (zero unless runtime.fence_wait_ns is attached).
type fenced struct {
	delivery
	to     int
	delay  time.Duration
	ticket uint64
	since  time.Time
}

// fenceCap is the hold-back capacity a node gets with the first frame it
// holds (a node on a store with nothing ever pending never does): what a
// flush's worth of sends needs at the rates the benchmark drives, so steady
// state never grows it.
const fenceCap = 16

// egress hands a frame just built under n.mu to the sender pool, or holds it
// while the node's newest checkpoint is not durable. Direct sends and
// releases both enqueue holding the fence lock, so a frame leaving the fence
// is never overtaken by a later send of its node.
func (n *Node) egress(to int, d *delivery, delay time.Duration) error {
	c, f := n.c, &n.fence
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.err != nil:
		// Fail-stop: a frame behind a fence that cannot open is a lost message.
		c.recycle(n.id, &d.pb)
		c.inflight.Add(-1)
		return f.err
	case n.staged > f.durable:
		if f.q == nil {
			f.q = make([]fenced, 0, fenceCap)
		}
		// The held frame is the copy the fence needs: the sender's delivery
		// is gone when egress returns.
		f.q = append(f.q, fenced{delivery: *d, to: to, delay: delay, ticket: n.staged})
		if c.obs.FenceWaitNs != nil {
			f.q[len(f.q)-1].since = time.Now()
		}
		c.obs.FenceDepth.Add(1)
	default:
		c.enqueue(n.id, to, d, delay)
	}
	return nil
}

// onDurable is the node's storage.Store NotifyDurable callback: every save
// staged up to seq is durable, so the frames holding tickets up to seq go
// out, in order — or, with err, none ever will and they are dropped.
func (n *Node) onDurable(seq uint64, err error) {
	c, f := n.c, &n.fence
	f.mu.Lock()
	defer f.mu.Unlock()
	defer f.settled.Broadcast()
	if err != nil {
		f.err = err
		n.dropFencedLocked()
		return
	}
	f.durable = seq
	var now time.Time
	if c.obs.FenceWaitNs != nil && len(f.q) > 0 {
		now = time.Now()
	}
	k := 0
	for ; k < len(f.q) && f.q[k].ticket <= seq; k++ {
		h := &f.q[k]
		if !h.since.IsZero() {
			c.obs.FenceWaitNs.Observe(now.Sub(h.since).Nanoseconds())
		}
		// The network delay starts now: enqueue adds it to the release time.
		c.enqueue(n.id, h.to, &h.delivery, h.delay)
	}
	c.obs.FenceDepth.Add(-int64(k))
	rest := copy(f.q, f.q[k:])
	clear(f.q[rest:]) // release piggyback and payload references
	f.q = f.q[:rest]
}

// dropFencedLocked discards the held frames with their in-flight accounting:
// they are volatile state of a node that crashed, pre-session traffic the
// epoch advance has already declared lost, or output of a store that failed.
func (n *Node) dropFencedLocked() {
	c, f := n.c, &n.fence
	if len(f.q) == 0 {
		return
	}
	for i := range f.q {
		c.recycle(n.id, &f.q[i].pb)
	}
	c.inflight.Add(-len(f.q))
	c.obs.FenceDepth.Add(-int64(len(f.q)))
	c.record(obs.Event{Kind: obs.EvFenceDrop, P: n.id, Msg: len(f.q)})
	clear(f.q)
	f.q = f.q[:0]
}

// dropFenced is dropFencedLocked for a caller holding n.mu and not the fence
// lock. A node whose store has never staged a save has never held a frame, and
// is spared the lock.
func (n *Node) dropFenced() {
	if n.staged == 0 {
		return
	}
	n.fence.mu.Lock()
	n.dropFencedLocked()
	n.fence.mu.Unlock()
}

// awaitDurable blocks until the store has reported ticket durable (nil) or
// failed with it pending (the sticky error). Callers hold no node lock.
func (f *fence) awaitDurable(ticket uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.durable < ticket && f.err == nil {
		f.settled.Wait()
	}
	if f.durable >= ticket {
		return nil
	}
	return f.err
}
