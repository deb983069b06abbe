package runtime

import (
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

// pending is one queued message: the delivery plus routing and ordering.
type pending struct {
	delivery
	from int
	at   time.Time // due time: enqueue (fence release) time + simulated network delay
	seq  uint64    // queue-local tiebreak, monotone in enqueue order
	wseq uint64    // per-(from,to) wire seq, stamped by the pair's link
}

// before is the heap order: due time, then enqueue order.
func (p *pending) before(q *pending) bool {
	if !p.at.Equal(q.at) {
		return p.at.Before(q.at)
	}
	return p.seq < q.seq
}

// destQueue is one destination's pending-message heap plus its worker's
// lifecycle state.
type destQueue struct {
	to int

	mu      sync.Mutex
	h       []pending
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

// push inserts a message, maintaining the (at, seq) heap order.
func (q *destQueue) push(p pending) {
	q.h = append(q.h, p)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(&q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes the earliest message. Caller guarantees the heap is
// non-empty.
func (q *destQueue) pop() pending {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = pending{} // release payload/piggyback references
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(q.h) && q.h[l].before(&q.h[s]) {
			s = l
		}
		if r < len(q.h) && q.h[r].before(&q.h[s]) {
			s = r
		}
		if s == i {
			return top
		}
		q.h[i], q.h[s] = q.h[s], q.h[i]
		i = s
	}
}

// enqueue hands a message to the destination's queue, starting or waking
// the worker as needed. Called with the sending node's fence lock held
// (Node.egress, Node.onDurable), so a pair's messages enqueue in encode
// order; the due-time clamp then keeps that order through the heap.
func (c *Cluster) enqueue(from, to int, d delivery, delay time.Duration) {
	q := &c.queues[to]
	// A zero-delay network (the benchmark and default test shape) skips the
	// clock read: the zero due time sorts before any real one, is already
	// due on arrival, and the seq tiebreak keeps FIFO — and the compressed
	// clamp below stays monotone, since zero never exceeds a recorded due.
	var at time.Time
	if delay > 0 {
		at = time.Now().Add(delay)
	}
	q.mu.Lock()
	// The monotone due-time clamp runs whenever strict per-pair FIFO is
	// load-bearing: compressed piggybacking (delta decode order), a TCP
	// cluster (a pair is one stream), and stores that fence (a pair's
	// frames released in one instant).
	if c.pairDue != nil {
		if last := c.pairDue[from*c.cfg.N+to]; at.Before(last) {
			at = last
		}
		c.pairDue[from*c.cfg.N+to] = at
	}
	q.seq++
	q.push(pending{delivery: d, from: from, at: at, seq: q.seq})
	c.obs.QueueDepth.Add(1)
	newTop := q.h[0].seq == q.seq
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
	for i := range q.h {
		c.recycle(q.h[i].from, q.h[i].pb)
		if c.pairDue != nil {
			c.pairDue[q.h[i].from*c.cfg.N+q.to] = time.Time{}
		}
	}
	purged := len(q.h)
	clear(q.h) // release payload/piggyback references
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
	last := time.Now() // the last dispatch, or the spawn
	for {
		q.mu.Lock()
		now := time.Now()
		for len(q.h) > 0 && !q.h[0].at.After(now) && len(batch) < maxDispatchBatch {
			batch = append(batch, q.pop())
		}
		var wait time.Duration
		idle := len(q.h) == 0
		if !idle {
			wait = q.h[0].at.Sub(now)
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
				wait = workerIdle - now.Sub(last)
			}
			timer.Reset(wait)
			c.obs.TimerResets.Inc()
			armed = true
		}
		select {
		case <-q.wake:
		case <-timer.C:
			armed = false
			if idle && time.Since(last) >= workerIdle {
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
// there, frames the wire takes enter the pair's retransmit window — the
// piggyback buffers recycle when the window prunes them, not here — and
// frames it refuses, or that a cut holds back, park instead of dropping.
// Every message ends its in-flight accounting at delivery, at link
// reconciliation or when it parks.
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
