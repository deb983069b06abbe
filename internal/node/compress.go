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
// two of its messages) an encode instead scans, per entry, the log
// position of the entry's latest change — the same set, already in key
// order — so an encode costs O(min(window, n)). The encoder state is O(n)
// ints per kernel, the order of the dependency vector and the collector's
// UC it sits beside, carved from one array at construction and never
// allocated again.
//
// A reset (every recovery session, on every kernel) is O(1), not a clear:
// log positions never restart, and every per-peer and per-entry value
// written before the latest reset reads as unwritten (see resetPos).
//
// Ownership. The entries of a piggyback live in a buffer drawn from the
// driver (Driver.EntryBuf) and belong to the sender's side of the engine —
// in the live runtime, to the pair's link until the wire has delivered or
// encoded the frame — which then recycles the buffer. Receivers only read
// them for the duration of a delivery call.
//
// Both engines encode at send (Kernel.Send): the live runtime is told the
// destination by the application, the simulator reads it from its script
// before running it. Every compressed delivery is verified against the
// per-pair encode order, so a lost or reordered message fails loudly
// instead of silently corrupting causal knowledge.

// Entry is one transmitted vector entry: process K's interval index V.
// It is the sparse-vector entry of internal/vclock, shared with the
// storage and transport layers so sparse data crosses layer boundaries
// without conversion.
type Entry = vclock.Entry

// compressor holds one kernel's incremental-piggyback state. Per-peer and
// per-entry state is dense — slices of length n indexed by process — so the
// send and receive paths touch no map and reset touches none of it.
type compressor struct {
	// log records the index of every dependency-vector entry that changed,
	// in change order; the absolute position of log[i] is logBase+i.
	// Trimming drops the prefix every destination has already covered.
	log     []int
	logBase int
	// resetPos is the log position of the latest reset (0 before any): every
	// per-peer and per-entry value written before the reset is at most
	// resetPos, and every one written after it is above.
	resetPos int
	// chgPos[k] is the log position just past the note batch that last
	// recorded entry k; a value not above resetPos means k has not changed
	// since the last reset. An encode's covered position is always a batch
	// boundary (positions are captured between kernel events) and at least
	// resetPos, so k changed at or after it exactly when chgPos[k] > covered.
	chgPos []int
	// sentPos[d] is one past the log position destination d's most recent
	// encode covered; a value not above resetPos marks a destination that has
	// not been synced since the last reset and gets a full scan of the vector.
	sentPos []int
	// trimAt is the log length at which trim next looks for a droppable
	// prefix, so its O(n) minimum is paid once per minTrim noted changes,
	// not once per encode.
	trimAt int

	encCnt   []int // per destination: encodes so far since it was synced (the wire Ord)
	recvNext []int // per source: next expected wire Ord, valid while recvGen matches
	recvGen  []int // per source: the resetPos recvNext was last written under

	// seen/stamp dedup log indices during one log walk without clearing.
	seen  []int
	stamp int

	// entBuf is the buffer every encode builds its result in; the result is
	// valid until the next encode (Kernel.Send copies it out).
	entBuf []Entry
}

func newCompressor(n int) *compressor {
	c := &compressor{}
	all := make([]int, 6*n)
	for _, s := range []*[]int{&c.chgPos, &c.sentPos, &c.encCnt, &c.recvNext, &c.recvGen, &c.seen} {
		*s, all = all[:n:n], all[n:]
	}
	return c
}

// reset discards all incremental state — log, per-pair positions and
// orders — restarting every pair from a full set of entries, in O(1): the
// log restarts one position past its end, so every value written so far
// reads as "before the reset" (see resetPos). The stamp survives so stale
// seen marks can never collide.
func (c *compressor) reset() {
	c.logBase = c.pos() + 1
	c.resetPos = c.logBase
	c.log = c.log[:0]
	c.trimAt = 0
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

// pos returns the current log position: an encode covers the log up to it.
func (c *compressor) pos() int { return c.logBase + len(c.log) }

// encode returns the entries of dv that changed since the previous encode
// for dest — the log window between the destination's last covered position
// and the end of the log — in key order, plus the message's per-pair wire
// order. The entries live in the compressor's buffer and are valid until
// the next encode.
func (c *compressor) encode(dest int, dv vclock.DV) ([]Entry, int, error) {
	if dest < 0 || dest >= len(c.sentPos) {
		return nil, 0, fmt.Errorf("node: compressed piggyback for destination %d outside [0,%d)", dest, len(c.sentPos))
	}
	synced := c.sentPos[dest] > c.resetPos
	ord := 0
	if synced {
		ord = c.encCnt[dest]
	}
	c.encCnt[dest] = ord + 1

	entries := c.entBuf[:0]
	pos := c.pos()
	covered := c.sentPos[dest] - 1
	switch {
	case !synced:
		// First message of the pair (or first after a reset): everything
		// the vector knows, which is exactly its nonzero entries.
		for k, v := range dv {
			if v != 0 {
				entries = append(entries, Entry{K: k, V: v})
			}
		}
	case covered < c.logBase:
		// Positions below logBase are trimmed only once every synced
		// destination has passed them.
		return nil, 0, fmt.Errorf("node: internal: change log trimmed to %d past →p%d's covered position %d",
			c.logBase, dest, covered)
	case pos-covered >= len(c.chgPos):
		// A window no shorter than the vector: asking each entry whether it
		// changed is the cheaper enumeration.
		entries = c.scanChanged(covered, dv, entries)
	default:
		entries = c.walkLog(covered, dv, entries)
	}
	c.entBuf = entries
	c.sentPos[dest] = pos + 1
	c.trim()
	return entries, ord, nil
}

// walkLog appends the entries whose indices appear in the log from position
// covered on, in key order. Every index there strictly increased since the
// pair's previous message, so its value is new to the receiver; indices
// changed more than once are sent once.
func (c *compressor) walkLog(covered int, dv vclock.DV, entries []Entry) []Entry {
	c.stamp++
	for _, k := range c.log[covered-c.logBase:] {
		if c.seen[k] == c.stamp {
			continue
		}
		c.seen[k] = c.stamp
		entries = append(entries, Entry{K: k, V: dv[k]})
	}
	slices.SortFunc(entries, func(a, b Entry) int { return a.K - b.K })
	return entries
}

// scanChanged appends the entries that changed at or after log position
// covered, in key order: the set walkLog enumerates, found per entry
// instead of per log position.
func (c *compressor) scanChanged(covered int, dv vclock.DV, entries []Entry) []Entry {
	for k, p := range c.chgPos {
		if p > covered {
			entries = append(entries, Entry{K: k, V: dv[k]})
		}
	}
	return entries
}

// trim drops the log prefix every synced destination has covered. It never
// evicts a destination's position: eviction would make what a message
// carries depend on when the log was last trimmed, not only on what changed
// since the pair's previous message — the definition the equivalence tests
// and the compression tables hold every encode to. The cost of that
// guarantee is that a once-synced destination that goes permanently quiet
// pins the log, which then grows with the kernel's total entry changes
// until the next compression reset (recovery sessions reset it); the old
// per-destination vector copies cost O(n) per active pair instead, so the
// trade is bounded history for bounded width.
func (c *compressor) trim() {
	const minTrim = 256
	if len(c.log) < c.trimAt {
		return
	}
	m := c.pos()
	for _, sp := range c.sentPos {
		if sp > c.resetPos && sp-1 < m {
			m = sp - 1
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
	if c.recvGen[from] != c.resetPos {
		// The source's first message since the reset: its order restarts.
		c.recvGen[from], c.recvNext[from] = c.resetPos, 0
	}
	if want := c.recvNext[from]; ord != want {
		return fmt.Errorf("node: compressed piggybacking requires reliable per-pair FIFO delivery: p%d's message %d arrived, want %d",
			from, ord, want)
	}
	c.recvNext[from]++
	return nil
}
