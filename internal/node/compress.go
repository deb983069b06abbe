package node

import (
	"fmt"
	"slices"

	"repro/internal/vclock"
)

// This file implements the Singhal–Kshemkalyani incremental technique for
// dependency-vector piggybacking as a kernel capability: a sender
// transmits, per destination, only the vector entries that changed since
// its previous message to that destination. Under reliable FIFO channels
// the receiver provably misses nothing — an unchanged entry was already
// covered by the previous message — so the middleware behaves identically
// to full-vector piggybacking (the equivalence tests assert this) while
// the control information shrinks from n entries per message to the number
// of recently changed ones.
//
// The encoder pays O(changed) too, not just the wire: instead of keeping a
// full vector copy per destination (O(n) memory each, O(n) scan per
// encode), the kernel appends every entry change to a shared change log
// and remembers, per destination, the log position its last message
// covered. An encode replays only the log suffix since that position —
// exactly the changed entries, because vector entries only ever increase
// between compression resets. When that suffix is at least n long (dense
// traffic: every pair is used rarely, and most of the vector moves between
// two of its messages) a send-time encode instead scans, per entry, the
// log position of the entry's latest change — the same set, already in key
// order — so an encode costs O(min(window, n)). The encoder state is O(n)
// ints per kernel, the order of the dependency vector and the collector's
// UC it sits beside, and none of it is allocated after construction.
//
// Ownership. The entries of a send-time piggyback (Kernel.Send) live in a
// buffer drawn from the driver (Driver.EntryBuf) and belong to the sender's
// side of the engine — in the live runtime, to the pair's link until its
// retransmit window prunes the frame — which then recycles the buffer.
// Receivers only read them for the duration of a delivery call and copy
// what must outlive it (the batch path's pendRun does).
//
// Both engines use it through the same state: the live runtime encodes at
// send time (Kernel.Send, the destination is known) and sequences the
// network per pair; the deterministic simulator encodes lazily at delivery
// time (Kernel.EncodeFor, scripts bind the destination at the receive
// operation) against the send-time snapshot and the send-time log position
// (Piggyback.Pos), which under per-pair FIFO replays the exact window a
// send-time encode would have. Every compressed delivery is verified
// against the per-pair encode order, so a lost or reordered message fails
// loudly instead of silently corrupting causal knowledge.

// Entry is one transmitted vector entry: process K's interval index V.
// It is the sparse-vector entry of internal/vclock, shared with the
// storage and transport layers so sparse data crosses layer boundaries
// without conversion.
type Entry = vclock.Entry

// compressor holds one kernel's incremental-piggyback state. Per-peer and
// per-entry state is dense — slices of length n indexed by process — so the
// send and receive paths touch no map and reset is a clear.
type compressor struct {
	// log records the index of every dependency-vector entry that changed,
	// in change order; the absolute position of log[i] is logBase+i.
	// Trimming drops the prefix every destination has already covered.
	log     []int
	logBase int
	// chgPos[k] is the log position just past the note batch that last
	// recorded entry k; 0 means k has not changed since the last reset. An
	// encode's covered position is always a batch boundary (positions are
	// captured between kernel events), so k changed at or after it exactly
	// when chgPos[k] > covered.
	chgPos []int
	// sentPos[d] is one past the log position destination d's most recent
	// encode covered; 0 marks a destination that has not been synced since
	// the last reset and gets a full scan of the snapshot.
	sentPos []int
	// pending counts outstanding snapshot positions: a lazy engine holds a
	// position at send time (Kernel.SendSnapshot) and releases it when the
	// message is encoded at delivery (Kernel.EncodeFor); trimming never
	// crosses a held position, so the window a pending encode will replay
	// stays in the log.
	pending map[int]int
	// trimAt is the log length at which trim next looks for a droppable
	// prefix, so its O(n) minimum is paid once per minTrim noted changes,
	// not once per encode.
	trimAt int

	lastOrd  []int // per destination: send order of the last encoded message
	encCnt   []int // per destination: encodes so far (the wire Ord)
	recvNext []int // per source: next expected wire Ord

	// seen/stamp dedup log indices during one log walk without clearing.
	seen  []int
	stamp int

	// entBuf is the buffer every encode builds its result in; the result is
	// valid until the next encode (Kernel.Send copies it out).
	entBuf []Entry
}

func newCompressor(n int) *compressor {
	return &compressor{
		chgPos:   make([]int, n),
		sentPos:  make([]int, n),
		pending:  make(map[int]int),
		lastOrd:  make([]int, n),
		encCnt:   make([]int, n),
		recvNext: make([]int, n),
		seen:     make([]int, n),
	}
}

// reset discards all incremental state — log, per-pair positions and
// orders — restarting every pair from a full set of entries. The stamp
// survives so stale seen marks can never collide.
func (c *compressor) reset() {
	c.log = c.log[:0]
	c.logBase = 0
	c.trimAt = 0
	clear(c.chgPos)
	clear(c.sentPos)
	clear(c.pending)
	clear(c.lastOrd)
	clear(c.encCnt)
	clear(c.recvNext)
}

// note records that the vector entries with the given indices increased.
// The kernel calls it on every merge, checkpoint and initialization, so
// the log is a faithful journal of the vector's evolution.
func (c *compressor) note(indices ...int) {
	c.log = append(c.log, indices...)
	end := c.pos()
	for _, k := range indices {
		c.chgPos[k] = end
	}
}

// pos returns the current log position — the value a send captures as
// Piggyback.Pos, delimiting the changes the message's encode must cover.
func (c *compressor) pos() int { return c.logBase + len(c.log) }

// hold captures the current log position and pins it against trimming
// until the matching release — the send side of a lazy encode.
func (c *compressor) hold() int {
	p := c.pos()
	c.pending[p]++
	return p
}

// release unpins a position captured by hold.
func (c *compressor) release(p int) {
	if c.pending[p] > 1 {
		c.pending[p]--
	} else {
		delete(c.pending, p)
	}
}

// nextOrd returns the send order the kernel's own send path uses for the
// next encode to dest (encode order and send order coincide when encoding
// happens at send time).
func (c *compressor) nextOrd(dest int) int { return c.encCnt[dest] }

// encode returns the entries of snapshot that changed since the previous
// encode for dest — the log window between the destination's last covered
// position and pos, the sender's log position when the message was sent —
// in key order, plus the message's per-pair wire order. sendOrd is the
// message's position among the sender's sends to dest, for FIFO
// enforcement when encoding lazily at delivery time. The entries live in
// the compressor's buffer and are valid until the next encode.
func (c *compressor) encode(dest, sendOrd, pos int, snapshot vclock.DV) ([]Entry, int, error) {
	if dest < 0 || dest >= len(c.sentPos) {
		return nil, 0, fmt.Errorf("node: compressed piggyback for destination %d outside [0,%d)", dest, len(c.sentPos))
	}
	if last := c.lastOrd[dest]; sendOrd < last {
		return nil, 0, fmt.Errorf("node: compressed piggybacking requires FIFO channels: →p%d delivered send %d after %d",
			dest, sendOrd, last)
	}
	c.lastOrd[dest] = sendOrd
	ord := c.encCnt[dest]
	c.encCnt[dest] = ord + 1

	entries := c.entBuf[:0]
	covered := c.sentPos[dest] - 1
	switch {
	case covered < 0:
		// First message of the pair (or first after a reset): everything
		// the snapshot knows, which is exactly its nonzero entries.
		for k, v := range snapshot {
			if v != 0 {
				entries = append(entries, Entry{K: k, V: v})
			}
		}
	case covered < c.logBase:
		// Positions below logBase are trimmed only once every synced
		// destination and every held snapshot has passed them.
		return nil, 0, fmt.Errorf("node: internal: change log trimmed to %d past →p%d's covered position %d",
			c.logBase, dest, covered)
	case pos == c.pos() && pos-covered >= len(c.chgPos):
		// Encoding at send time with a window no shorter than the vector:
		// asking each entry whether it changed is the cheaper enumeration.
		entries = c.scanChanged(covered, snapshot, entries)
	default:
		entries = c.walkLog(covered, pos, snapshot, entries)
	}
	c.entBuf = entries
	c.sentPos[dest] = pos + 1
	c.trim()
	return entries, ord, nil
}

// walkLog appends the entries whose indices appear in the log window
// [covered, pos), in key order. Every index in it strictly increased since
// the pair's previous message, so its snapshot value is new to the
// receiver; indices changed more than once are sent once. It is the only
// enumeration a lazy encode may use: the snapshot is older than the
// vector, and changes past pos belong to the pair's next message.
func (c *compressor) walkLog(covered, pos int, snapshot vclock.DV, entries []Entry) []Entry {
	c.stamp++
	for p := covered; p < pos; p++ {
		k := c.log[p-c.logBase]
		if c.seen[k] == c.stamp {
			continue
		}
		c.seen[k] = c.stamp
		entries = append(entries, Entry{K: k, V: snapshot[k]})
	}
	slices.SortFunc(entries, func(a, b Entry) int { return a.K - b.K })
	return entries
}

// scanChanged appends the entries that changed at or after log position
// covered, in key order. Valid only at send time (the window runs to the
// end of the log), where it enumerates exactly what walkLog does.
func (c *compressor) scanChanged(covered int, snapshot vclock.DV, entries []Entry) []Entry {
	for k, p := range c.chgPos {
		if p > covered {
			entries = append(entries, Entry{K: k, V: snapshot[k]})
		}
	}
	return entries
}

// trim drops the log prefix every synced destination and every held
// snapshot has covered. It never evicts a destination's position: eviction
// would change what a later encode transmits, and the two engines — which
// encode the same traffic at different event times, so their sentPos
// disagree at any given kernel event — must produce identical entries.
// The cost of that guarantee is that a once-synced destination that goes
// permanently quiet pins the log, which then grows with the kernel's
// total entry changes until the next compression reset (recovery
// sessions reset it); the old per-destination vector copies cost O(n)
// per active pair instead, so the trade is bounded history for bounded
// width.
func (c *compressor) trim() {
	const minTrim = 256
	if len(c.log) < c.trimAt {
		return
	}
	m := c.pos()
	for _, sp := range c.sentPos {
		if sp > 0 && sp-1 < m {
			m = sp - 1
		}
	}
	for p := range c.pending {
		if p < m {
			m = p
		}
	}
	if cut := m - c.logBase; cut >= minTrim {
		c.log = c.log[:copy(c.log, c.log[cut:])]
		c.logBase = m
	}
	c.trimAt = len(c.log) + minTrim
}

// verifyArrival checks a compressed message arrives exactly in per-pair
// encode order: a gap means a message was lost (the deltas it carried are
// unrecoverable), an inversion means the channel is not FIFO.
func (c *compressor) verifyArrival(from, ord int) error {
	if c == nil {
		return fmt.Errorf("node: compressed piggyback delivered to a non-compressing kernel")
	}
	if from < 0 || from >= len(c.recvNext) {
		return fmt.Errorf("node: compressed piggyback from process %d outside [0,%d)", from, len(c.recvNext))
	}
	if want := c.recvNext[from]; ord != want {
		return fmt.Errorf("node: compressed piggybacking requires reliable per-pair FIFO delivery: p%d's message %d arrived, want %d",
			from, ord, want)
	}
	c.recvNext[from]++
	return nil
}
