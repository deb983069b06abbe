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
// of recently changed ones. A changed entry takes two words on the wire, so
// when more than half the vector changed the kernel ships the whole vector
// instead (Kernel.Send): a message costs min(16·changed, 8·n) bytes.
//
// The encoder pays O(changed) too, not just the wire: instead of keeping a
// full vector copy per destination (O(n) memory each, O(n) scan per
// encode), the kernel counts entry changes in one position counter and
// remembers, per entry, the position of its latest change and, per
// destination, the position its last message covered — the "last update"
// and "last sent" of the original technique. The entries are kept in one
// recency list, newest change first, so the entries that changed since a
// destination's covered position are a prefix of it: an encode walks that
// prefix, visiting each changed entry once however often it changed, and
// sorts it. When the destination's window is at least n positions long
// (dense traffic: every pair is used rarely, and most of the vector moves
// between two of its messages) an encode instead scans, per entry, the
// position of the entry's latest change — the same set, already in key
// order — so an encode costs O(min(changed·log changed, n)). The encoder
// state is a fixed 7n ints per kernel, the order of the dependency vector
// and the collector's UC it sits beside, carved from one array at
// construction and never allocated again, however long a destination stays
// quiet.
//
// A reset (every recovery session, on every kernel) is O(1), not a clear:
// positions never restart, and every per-peer and per-entry value
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
	// pos is the current change position: every note batch advances it by
	// the batch's length, every reset by one. An encode covers the changes
	// up to it.
	pos int
	// resetPos is the position of the latest reset (0 before any): every
	// per-peer and per-entry value written before the reset is at most
	// resetPos, and every one written after it is above.
	resetPos int
	// chgPos[k] is the position just past the note batch that last recorded
	// entry k; a value not above resetPos means k has not changed since the
	// last reset. An encode's covered position is always a batch boundary
	// (positions are captured between kernel events) and at least resetPos,
	// so k changed at or after it exactly when chgPos[k] > covered.
	chgPos []int
	// head, next and prev hold every entry in one doubly-linked recency
	// list, ordered by chgPos with the newest change first (-1 ends it), so
	// the entries with chgPos above any position are a prefix of the list.
	head       int
	next, prev []int
	// sentPos[d] is one past the position destination d's most recent encode
	// covered; a value not above resetPos marks a destination that has not
	// been synced since the last reset and gets a full scan of the vector.
	sentPos []int

	encCnt   []int // per destination: encodes so far since it was synced (the wire Ord)
	recvNext []int // per source: next expected wire Ord, valid while recvGen matches
	recvGen  []int // per source: the resetPos recvNext was last written under

	// entBuf is the buffer every encode builds its result in; the result is
	// valid until the next encode (Kernel.Send copies it out). An encode
	// stops building one entry past half the vector, so newCompressor sizes
	// it once, to n/2+1 entries, and it never grows.
	entBuf []Entry
}

func newCompressor(n int) *compressor {
	c := &compressor{entBuf: make([]Entry, 0, n/2+1)}
	all := make([]int, 7*n)
	for _, s := range []*[]int{&c.chgPos, &c.next, &c.prev, &c.sentPos, &c.encCnt, &c.recvNext, &c.recvGen} {
		*s, all = all[:n:n], all[n:]
	}
	// Every entry is listed from the start, in key order: none has changed.
	for k := range n {
		c.prev[k], c.next[k] = k-1, k+1
	}
	c.next[n-1] = -1
	return c
}

// reset discards all incremental state — per-pair positions and orders —
// restarting every pair from a full set of entries, in O(1): the position
// moves one past its end, so every value written so far reads as "before
// the reset" (see resetPos), and every listed entry reads as unchanged.
func (c *compressor) reset() {
	c.pos++
	c.resetPos = c.pos
}

// note records that the vector entries with the given indices increased,
// moving each to the head of the recency list. The kernel calls it on every
// merge, checkpoint and initialization.
func (c *compressor) note(indices ...int) {
	c.pos += len(indices)
	for _, k := range indices {
		c.chgPos[k] = c.pos
		if k == c.head {
			continue
		}
		p, nx := c.prev[k], c.next[k]
		c.next[p] = nx
		if nx >= 0 {
			c.prev[nx] = p
		}
		c.prev[k], c.next[k] = -1, c.head
		c.prev[c.head] = k
		c.head = k
	}
}

// encode returns the entries of dv that changed since the previous encode
// for dest — those whose latest change lies past the destination's covered
// position — in key order, plus the message's per-pair wire order. When
// more than half the vector changed (2k > n) it reports dense instead, with
// no entries: at two words an entry against one a process, the whole
// vector is then the smaller form, and the kernel ships that. Either way
// the pair is synced to the current position. The entries live in the
// compressor's buffer and are valid until the next encode.
func (c *compressor) encode(dest int, dv vclock.DV) (entries []Entry, dense bool, ord int, err error) {
	if dest < 0 || dest >= len(c.sentPos) {
		return nil, false, 0, fmt.Errorf("node: compressed piggyback for destination %d outside [0,%d)", dest, len(c.sentPos))
	}
	synced := c.sentPos[dest] > c.resetPos
	if synced {
		ord = c.encCnt[dest]
	}
	c.encCnt[dest] = ord + 1

	entries = c.entBuf[:0]
	covered, most := c.sentPos[dest]-1, len(c.chgPos)/2
	switch {
	case !synced:
		// First message of the pair (or first after a reset): everything
		// the vector knows, which is exactly its nonzero entries.
		for k, v := range dv {
			if v == 0 {
				continue
			}
			if len(entries) > most {
				break
			}
			entries = append(entries, Entry{K: k, V: v})
		}
	case c.pos-covered >= len(c.chgPos):
		// A window no shorter than the vector: asking each entry whether it
		// changed is the cheaper enumeration.
		entries = c.scanChanged(covered, dv, entries, most)
	default:
		entries = c.walkRecent(covered, dv, entries, most)
	}
	c.entBuf = entries
	c.sentPos[dest] = c.pos + 1
	if len(entries) > most {
		return nil, true, ord, nil
	}
	return entries, false, ord, nil
}

// walkRecent appends the entries that changed at or after position
// covered, in key order: the recency list's prefix down to the first entry
// whose latest change is not past covered, sorted. Every one strictly
// increased since the pair's previous message, so its value is new to the
// receiver, and each is listed once however often it changed. Past most
// entries it stops, unsorted, at most+1.
func (c *compressor) walkRecent(covered int, dv vclock.DV, entries []Entry, most int) []Entry {
	for k := c.head; k >= 0 && c.chgPos[k] > covered; k = c.next[k] {
		if len(entries) > most {
			return entries
		}
		entries = append(entries, Entry{K: k, V: dv[k]})
	}
	slices.SortFunc(entries, func(a, b Entry) int { return a.K - b.K })
	return entries
}

// scanChanged appends the entries that changed at or after position
// covered, in key order: the set walkRecent enumerates, found per entry
// instead of per list position. Past most entries it stops, at most+1.
func (c *compressor) scanChanged(covered int, dv vclock.DV, entries []Entry, most int) []Entry {
	for k, p := range c.chgPos {
		if p > covered {
			if len(entries) > most {
				return entries
			}
			entries = append(entries, Entry{K: k, V: dv[k]})
		}
	}
	return entries
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
