package runtime

import (
	"slices"
	"sync"
	"time"

	"repro/internal/node"
)

// This file is the cluster's sender pool: the bounded, reusable machinery
// that replaced the goroutine-per-message send path. Each destination owns
// one queue — a min-heap ordered by delivery due time — drained by at most
// one worker goroutine, spawned lazily on the first enqueue and retired
// after an idle period, so a cluster never holds more than N sender
// goroutines however many messages are in flight (the old path held one
// per in-flight message, each parked in its own time.Sleep).
//
// The heap is also the delay/drop simulation's timer: a message's network
// delay becomes its due time, and the worker sleeps on a single timer
// until the earliest one, instead of every message sleeping separately.
// Messages that come due together are popped together and handed to the link
// layer (link.go) one (sender, destination) run at a time: a run is one
// ingest on the in-process wire, one buffered write on the TCP wire.
//
// Per-pair FIFO — for compressed piggybacks, a TCP cluster's streams, and
// frames that leave an egress fence together — falls out of the
// queue order: due times are clamped monotone per (from, to) pair at enqueue
// (under the sender's fence lock, so they follow encode order) and ties
// break on the enqueue sequence number, so a pair's messages can never
// overtake each other however the delay draws land.

// workerIdle is how long an empty queue keeps its worker parked before the
// goroutine retires. Long enough that steady traffic reuses one goroutine,
// short enough that an idle cluster (the common state of test clusters,
// which are rarely Closed) sheds its workers.
const workerIdle = 50 * time.Millisecond

// maxDispatchBatch bounds how many due messages one dispatch consumes, so
// a saturated queue cannot hold a pair's link (and through it the receiver's
// ring, or the wire buffer) for an unbounded stretch.
const maxDispatchBatch = 128

// delivery is one message as the receiver consumes it.
type delivery struct {
	msg     int
	pb      node.Piggyback
	epoch   uint64
	payload []byte
}

// pending is one message between the sender pool and the receiver: the
// delivery plus its routing. Its due time and queue order live in the
// destination heap's key, not here.
type pending struct {
	delivery
	from int
	wseq uint64 // per-(from,to) wire seq, stamped by the pair's link
}

// dueKey is one heap entry: what orders a queued frame, and the slab slot
// that holds it. The heap moves these 24 bytes; the frame stays put.
type dueKey struct {
	at   int64  // due time in ns on the cluster's monotonic clock (Cluster.mono); 0 is due on arrival
	seq  uint64 // queue-local tiebreak, monotone in enqueue order
	slot int32  // index into destQueue.slab
}

// before is the heap order: due time, then enqueue order.
func (k dueKey) before(o dueKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// destQueue is one destination's pending-message heap plus its worker's
// lifecycle state. A queued frame is written once, into a slot of slab, and
// leaves it once, into the worker's dispatch batch; h orders the slots by
// due time and free lists the slots nobody holds.
type destQueue struct {
	to int

	mu      sync.Mutex
	h       []dueKey
	slab    []pending
	free    []int32
	seq     uint64
	running bool
	wake    chan struct{} // 1-buffered: signals a new earliest due time

	// Worker working state, owned by whichever incarnation is running.
	// Kept on the queue rather than the worker's stack so that retiring
	// and respawning a worker (idle queues shed their goroutine) does not
	// re-allocate the timer and scratch buffers each time — at large n
	// most destinations see sparse traffic and churn workers constantly.
	timer *time.Timer
	batch []pending
}

// put queues one frame due at at: the frame is written into a free slab slot
// (the slab grows only when every slot is taken, so it never outgrows the
// queue's high-water depth) and its key sifts up the heap. It reports whether
// the frame became the earliest. Called with q.mu held.
func (q *destQueue) put(from int, d *delivery, at int64) (newTop bool) {
	var slot int32
	if k := len(q.free); k > 0 {
		slot = q.free[k-1]
		q.free = q.free[:k-1]
	} else {
		q.slab = append(q.slab, pending{})
		slot = int32(len(q.slab) - 1)
	}
	p := &q.slab[slot]
	p.delivery = *d
	p.from = from
	q.seq++
	q.h = append(q.h, dueKey{at: at, seq: q.seq, slot: slot})
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
	return i == 0
}

// popTo removes the earliest frame, moving it from its slot onto batch and
// freeing the slot. Called with q.mu held on a non-empty heap.
func (q *destQueue) popTo(batch []pending) []pending {
	slot := q.h[0].slot
	p := &q.slab[slot]
	// Grown first, then assigned: append(batch, *p) would stage the frame in
	// a stack temporary and copy it twice.
	batch = slices.Grow(batch, 1)[:len(batch)+1]
	batch[len(batch)-1] = *p
	*p = pending{} // release payload/piggyback references
	q.free = append(q.free, slot)
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(q.h) && q.h[l].before(q.h[s]) {
			s = l
		}
		if r < len(q.h) && q.h[r].before(q.h[s]) {
			s = r
		}
		if s == i {
			return batch
		}
		q.h[i], q.h[s] = q.h[s], q.h[i]
		i = s
	}
}

// enqueue hands a message to the destination's queue, starting or waking
// the worker as needed. Called with the sending node's fence lock held
// (Node.egress, Node.onDurable), so a pair's messages enqueue in encode
// order; the due-time clamp then keeps that order through the heap.
func (c *Cluster) enqueue(from, to int, d *delivery, delay time.Duration) {
	q := &c.queues[to]
	// A zero-delay network (the benchmark and default test shape) skips the
	// clock read: the zero due time sorts before any real one, is already
	// due on arrival, and the seq tiebreak keeps FIFO — and the compressed
	// clamp below stays monotone, since zero never exceeds a recorded due.
	var at int64
	if delay > 0 {
		at = c.mono() + int64(delay)
	}
	q.mu.Lock()
	// The monotone due-time clamp runs whenever strict per-pair FIFO is
	// load-bearing: compressed piggybacking (delta decode order), a TCP
	// cluster (a pair is one stream), and stores that fence (a pair's
	// frames released in one instant).
	if c.pairDue != nil {
		if last := c.pairDue[from*c.cfg.N+to]; at < last {
			at = last
		}
		c.pairDue[from*c.cfg.N+to] = at
	}
	newTop := q.put(from, d, at)
	c.obs.QueueDepth.Add(1)
	if !q.running {
		q.running = true
		c.obs.WorkerSpawns.Inc()
		go c.sendWorker(q)
	} else if newTop {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
	q.mu.Unlock()
}

// purgeQueue empties one destination's heap for cancelTransit and reports how
// many frames it held; the caller ends their in-flight accounting. Only two
// parties ever take a frame out of a heap: the queue's worker, one batch of due
// frames at a time, and this — with the cluster halted and every node past the
// barrier, so the heap holds old-epoch frames only and gains none meanwhile.
// Each purged pair's due-time clamp is reset with it: the clamp exists to keep
// a pair's frames in order, and a dead frame's due time orders nothing — left
// standing, it would hold the pair's first post-session frame back to it. A
// pair with nothing purged has no due time ahead of the clock to reset.
func (c *Cluster) purgeQueue(q *destQueue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, k := range q.h {
		p := &q.slab[k.slot]
		c.recycle(p.from, &p.pb)
		if c.pairDue != nil {
			c.pairDue[p.from*c.cfg.N+q.to] = 0
		}
		*p = pending{} // release payload/piggyback references
		q.free = append(q.free, k.slot)
	}
	purged := len(q.h)
	q.h = q.h[:0]
	return purged
}

// sendWorker drains one destination's queue: it sleeps until the earliest
// due time, pops everything due, and dispatches the batch. A worker retires
// once its queue has been empty for workerIdle since its last dispatch;
// enqueue spawns a fresh one on the next message.
//
// The idle timer is armed once per idle period, not each time the queue
// empties: a saturated queue empties after nearly every batch, and a re-arm
// there cost a timer reset per batch. An idle wait that finds a fire already
// pending keeps it; when the fire comes, the worker retires if workerIdle has
// passed since its last dispatch and re-arms for the rest otherwise. Only a
// wait for a due time re-arms every time, since its deadline moves.
func (c *Cluster) sendWorker(q *destQueue) {
	// The timer and batch buffer live on the queue (built at cluster
	// construction) and survive this incarnation's retirement, handed
	// over under q.mu; only one worker runs at a time, so between lock
	// acquisitions they are exclusively this goroutine's. Every wait in an
	// incarnation follows a Reset of its own (armed starts false), and a
	// worker retires only on a fire it received, so no incarnation inherits
	// a pending fire.
	q.mu.Lock()
	timer, batch := q.timer, q.batch[:0]
	q.mu.Unlock()
	armed := false
	last := c.mono() // the last dispatch, or the spawn
	for {
		q.mu.Lock()
		now := c.mono()
		for len(q.h) > 0 && q.h[0].at <= now && len(batch) < maxDispatchBatch {
			batch = q.popTo(batch)
		}
		var wait time.Duration
		idle := len(q.h) == 0
		if !idle {
			wait = time.Duration(q.h[0].at - now)
		}
		q.mu.Unlock()

		if len(batch) > 0 {
			last = now
			c.dispatch(q.to, batch)
			clear(batch)
			batch = batch[:0]
			continue
		}

		if !idle || !armed {
			if idle {
				wait = workerIdle - time.Duration(now-last)
			}
			timer.Reset(wait)
			c.obs.TimerResets.Inc()
			armed = true
		}
		select {
		case <-q.wake:
		case <-timer.C:
			armed = false
			if idle && time.Duration(c.mono()-last) >= workerIdle {
				q.mu.Lock()
				if len(q.h) == 0 {
					q.batch = batch[:0] // hand the scratch to the next incarnation
					q.running = false
					// Counted under the lock, like a spawn: whoever sees the
					// next spawn's traffic sees this retirement counted.
					c.obs.WorkerRetire.Inc()
					q.mu.Unlock()
					return
				}
				q.mu.Unlock()
			}
		}
	}
}

// dispatch hands a batch of due messages for one destination to the link
// layer, one (sender, destination) run at a time: wire seqs are stamped
// there, the wire takes what it can — its piggyback buffers recycle once the
// wire is done with them, not here: at delivery in process, when the
// retransmit window prunes them on TCP — and frames it refuses, or that a
// cut holds back, park instead of dropping. Every message ends its
// in-flight accounting at delivery, when it parks, or when the wire hands
// it back lost.
func (c *Cluster) dispatch(to int, batch []pending) {
	c.obs.QueueDepth.Add(-int64(len(batch)))
	for i := 0; i < len(batch); {
		j := i
		for j < len(batch) && batch[j].from == batch[i].from {
			j++
		}
		c.sendRun(batch[i].from, to, batch[i:j])
		i = j
	}
}
