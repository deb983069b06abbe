package runtime

import (
	"time"

	"repro/internal/node"
	"repro/internal/vclock"
)

// Views of a cluster's transit state for the tests in package runtime_test:
// what Quiesce waits on, what the sender pool holds, what the piggyback
// freelists hold, what the link layer holds parked or armed; and the send
// path's network draw.

// InTransit is the in-flight count Quiesce waits to see at zero.
func (c *Cluster) InTransit() int64 { return c.inflight.n.Load() }

// Queued counts the frames waiting in the sender pool's heaps.
func (c *Cluster) Queued() int {
	total := 0
	for i := range c.queues {
		q := &c.queues[i]
		q.mu.Lock()
		total += len(q.h)
		q.mu.Unlock()
	}
	return total
}

// FreeBuffers counts the piggyback buffers — vector snapshots and entry
// buffers — resting on the nodes' freelists.
func (c *Cluster) FreeBuffers() int {
	total := 0
	for _, n := range c.nodes {
		total += n.FreeBuffers()
	}
	return total
}

// FreeBuffers counts the piggyback buffers resting on this node's freelists.
func (n *Node) FreeBuffers() int {
	n.bufMu.Lock()
	defer n.bufMu.Unlock()
	return len(n.dvBufs) + len(n.entBufs)
}

// StockBuffers puts k vector snapshots and k entry buffers, each sized for
// the whole cluster, on this node's freelists. While the stock lasts, the
// node's sends draw every piggyback buffer from it and allocate none.
func (n *Node) StockBuffers(k int) {
	n.bufMu.Lock()
	defer n.bufMu.Unlock()
	for i := 0; i < k; i++ {
		n.dvBufs = append(n.dvBufs, make(vclock.DV, n.c.cfg.N))
		n.entBufs = append(n.entBufs, make([]node.Entry, 0, n.c.cfg.N))
	}
}

// NetworkDraw is the draw a send of this node makes — delay and drop — taken
// the way the send path takes it, under the node's lock.
func (n *Node) NetworkDraw() (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.netDraw()
}

// WorkerIdle is how long a sender-pool worker stays idle before it retires.
const WorkerIdle = workerIdle

// HoldRetries makes every retry timer the cluster arms from now on wait an
// hour, so a backlog behind one stays parked while the test looks at it.
// Call it before the cluster carries traffic.
func (c *Cluster) HoldRetries() { c.holdRetries = true }

// RetryTimers counts the pairs holding an armed retry timer.
func (c *Cluster) RetryTimers() int {
	armed := 0
	for _, pl := range c.createdLinks() {
		pl.mu.Lock()
		if pl.timer != nil {
			armed++
		}
		pl.mu.Unlock()
	}
	return armed
}

// DownLinks recounts the pairs whose down flag is set, under each pair's
// lock, and returns the recount beside the cluster's own count (downLinks),
// which a session reads instead of sweeping. On a quiet cluster the two must
// agree.
func (c *Cluster) DownLinks() (recounted, counted int) {
	for _, pl := range c.createdLinks() {
		pl.mu.Lock()
		if pl.down {
			recounted++
		}
		pl.mu.Unlock()
	}
	return recounted, int(c.downLinks.Load())
}

// PoisonStream hands the (from,to) pair's link k frames that the TCP wire's
// reader refuses to decode (a sparse entry with a negative value). They are
// written in one batch, so the wire accepts all k; the reader drops the
// stream at the first, and the transport reports the k lost through
// onLinkDown, which parks them behind a retry. A severed connection takes
// that path only for what it still carried when its ends closed, which a
// test cannot arrange, so this is how a test reaches it for sure; it kills
// the pair's other direction too, which shares the connection. TCP
// clusters only: the in-process wire would hand the frames to a kernel.
func (c *Cluster) PoisonStream(from, to, k int) {
	run := make([]pending, k)
	for i := range run {
		run[i].epoch = c.curEpoch()
		run[i].pb = node.Piggyback{Compressed: true, From: from, Entries: []node.Entry{{K: 0, V: -1}}}
	}
	c.inflight.Add(k) // what a dispatch run holds
	c.sendRun(from, to, run)
}
