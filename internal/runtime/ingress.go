package runtime

import (
	"fmt"
	"time"
)

// This file is the receive path. Each producer of an inbound batch — a mesh
// reader (one per live TCP stream), or the in-process hand-off run by
// whoever holds the pair's link — applies its own batch under the
// receiver's lock, each message by the kernel's one per-message step
// (Kernel.Deliver), the step the simulator runs. Returning only once the
// batch is applied gives:
//
//   - Zero-copy safety: a mesh batch's piggybacks alias the reader's frame
//     buffers, which the transport reuses once its callback returns, and
//     onWire returns only after ingest does.
//   - Backpressure: a slow receiver stalls each producer at its lock (a TCP
//     stream stops reading, so its sender meets a full socket; the
//     in-process hand-off stalls the destination's pool worker). Batches
//     waiting on one receiver are bounded by its producers: n−1 stream
//     readers on TCP; in process, the destination's pool worker plus any
//     heal flushes.
//   - Per-pair FIFO, the channel property compressed piggybacking stands
//     on: a pair has one producer at a time — its stream's reader, or the
//     holder of its link lock — which applies its batches in order.

// ingest applies one inbound batch, each message delivered or dropped per
// the epoch and crash rules, and returns once it is applied: the caller may
// then reuse the batch and everything its piggybacks alias. Nothing here
// (protocols and collectors included, per their interface contracts)
// retains a piggyback vector.
func (n *Node) ingest(batch []pending) {
	c := n.c
	c.obs.IngressDepth.Add(1)
	var t0 time.Time
	if c.obs.IngressNs != nil {
		t0 = time.Now()
	}
	n.mu.Lock()
	err := n.deliverLocked(batch)
	n.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("runtime: delivery on p%d: %v", n.id, err))
	}
	c.obs.IngressDrains.Inc()
	if c.obs.IngressNs != nil {
		c.obs.IngressNs.Observe(time.Since(t0).Nanoseconds())
	}
	c.obs.IngressDepth.Add(-1)
}

// deliverLocked is ingest's work under n.mu: each message that passes the
// epoch and crash filter is delivered by the kernel, then handed to the
// application handler, then recorded — in arrival order. A message sent
// before a recovery session was in transit when the failure hit, lost per
// the model; a crashed destination (n.down) loses the whole batch the same
// way.
func (n *Node) deliverLocked(batch []pending) error {
	if n.down {
		return nil
	}
	epoch := n.c.curEpoch()
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
	return nil
}
