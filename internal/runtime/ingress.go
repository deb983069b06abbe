package runtime

import (
	"fmt"
	"sync"
	"time"
)

// This file is the receive-side counterpart of the sender pool: a bounded
// per-node ingress ring between the concurrent producers of inbound batches
// (the wire: mesh readLoops — one per live TCP stream — or the in-process
// hand-off, on whoever holds the pair's link) and the node's kernel.
// Producers enqueue whole batches and block until theirs is applied;
// whichever producer finds no drain in progress becomes the drainer and
// applies everything queued — its own batch plus anything other streams
// enqueued behind it — under ONE receiver-lock acquisition. k streams
// hammering one receiver pay one lock acquisition per drain, not one per
// batch; inside the drain every message is delivered by the kernel's one
// per-message step (Kernel.Deliver), the step the simulator runs.
//
// Blocking producers give two properties at once:
//
//   - Zero-copy safety: a mesh batch's piggybacks alias the readLoop's
//     frame buffers, which the transport reuses as soon as its callback
//     returns. onWire returns only after ingest does, and ingest returns
//     only after the batch is applied — the documented ownership handoff,
//     with no copy on the hot path.
//   - Backpressure: the ring holds at most ingRingSize batches. A slow
//     receiver makes producers wait (the TCP streams stop reading, so the
//     kernel's send side feels it as a full socket; the in-process hand-off
//     stalls the destination's pool worker), instead of queueing unboundedly.
//
// Ordering: the ring is FIFO in enqueue order and each producer is
// sequential, so per-pair FIFO — each (sender, receiver) pair's messages
// arrive through one stream, one readLoop, or under one link lock — survives
// verbatim; that is the channel property compressed piggybacking stands on.
// Cross-pair order is whatever the enqueue race yields.

// ingRingSize bounds the batches queued per node. Batches, not messages:
// a slot's batch can carry up to the transport's inbound-batch cap, so the
// ring never forces tiny drains, while per-node memory stays a fixed 32
// slice headers however large the cluster.
const ingRingSize = 32

// ingress is the bounded MPSC batch ring. head/tail/applied are monotone
// slot sequence numbers (slot i lives at i%ingRingSize): head..tail-1 are
// occupied, applied trails head with the drains still in flight.
type ingress struct {
	mu      sync.Mutex
	space   sync.Cond // producers waiting for a free slot
	done    sync.Cond // producers waiting for their batch to be applied
	slots   [ingRingSize][]pending
	head    uint64
	tail    uint64
	applied uint64
	active  bool // a drainer is inside applyBatches
	scratch [][]pending
}

// ingest hands one batch to the node and returns once it has been applied
// (delivered or dropped per epoch/crash rules). The caller may reuse the
// batch slice — and everything its piggybacks alias — immediately after.
func (n *Node) ingest(batch []pending) {
	g := &n.ing
	g.mu.Lock()
	for g.tail-g.head == ingRingSize {
		g.space.Wait()
	}
	seq := g.tail
	g.slots[seq%ingRingSize] = batch
	g.tail++
	n.c.obs.IngressDepth.Add(1)
	for g.applied <= seq {
		if !g.active {
			g.active = true
			n.drainLocked()
			g.active = false
			g.done.Broadcast()
		} else {
			g.done.Wait()
		}
	}
	g.mu.Unlock()
}

// drainLocked applies every queued batch, grabbing the ring's current
// contents as one group per pass (batches that arrive while a group is
// applying are picked up by the next pass). Called with g.mu held by the
// producer that claimed the drainer role; g.mu is released around the
// apply so producers keep enqueueing during it.
func (n *Node) drainLocked() {
	g := &n.ing
	for g.head != g.tail {
		grab := g.scratch[:0]
		for g.head != g.tail {
			s := &g.slots[g.head%ingRingSize]
			grab = append(grab, *s)
			*s = nil
			g.head++
		}
		g.space.Broadcast()
		g.mu.Unlock()
		n.applyBatches(grab)
		count := uint64(len(grab))
		clear(grab)
		g.scratch = grab[:0]
		g.mu.Lock()
		g.applied += count
		g.done.Broadcast()
	}
}

// applyBatches delivers one drain group under a single receiver-lock
// acquisition: each message that passes the epoch and crash filter is
// delivered by the kernel, then handed to the application handler, then
// recorded — in arrival order.
//
// Piggyback vectors are only read for the duration of the drain: nothing
// here (protocols and collectors included, per their interface contracts)
// may retain them — producers reclaim or recycle the memory after ingest
// returns.
func (n *Node) applyBatches(groups [][]pending) {
	c := n.c
	var t0 time.Time
	if c.obs.IngressNs != nil {
		t0 = time.Now()
	}
	n.mu.Lock()
	err := n.deliverLocked(groups)
	n.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("runtime: delivery on p%d: %v", n.id, err))
	}
	c.obs.IngressDrains.Inc()
	c.obs.IngressDepth.Add(-int64(len(groups)))
	if c.obs.IngressNs != nil {
		c.obs.IngressNs.Observe(time.Since(t0).Nanoseconds())
	}
}

// deliverLocked is applyBatches' work under n.mu. A message sent before a
// recovery session was in transit when the failure hit, lost per the
// model; a crashed destination (n.down) loses whole groups the same way.
func (n *Node) deliverLocked(groups [][]pending) error {
	if n.down {
		return nil
	}
	epoch := n.c.curEpoch()
	for _, batch := range groups {
		for i := range batch {
			d := &batch[i].delivery
			if d.epoch != epoch {
				continue
			}
			if _, err := n.k.Deliver(d.pb); err != nil {
				return err
			}
			if n.c.cfg.OnDeliver != nil {
				n.c.cfg.OnDeliver(n.id, n.k.App(), d.payload)
			}
			n.recordRecv(batch[i].from, d.msg)
		}
	}
	return nil
}
