package runtime

// Views of a cluster's transit state for the tests in package runtime_test:
// what Quiesce waits on, what the sender pool holds, what the piggyback
// freelists hold.

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
// buffers — resting on the freelists.
func (c *Cluster) FreeBuffers() int {
	c.dvMu.Lock()
	defer c.dvMu.Unlock()
	return len(c.dvFree) + len(c.entFree)
}

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
