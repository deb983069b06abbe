package vclock

import "fmt"

// This file implements the sparse companion of DV: a delta is the set of
// vector entries that changed, carried as a sorted entry list instead of a
// size-n vector. The paper's space analysis (Section 4.5) observes that the
// causal information a single event adds is tiny compared to the system
// size; deltas are how the implementation pays for what changed — per
// message and per wire frame — instead of paying O(n) everywhere. The dense
// DV stays the reference semantics: every delta operation is defined by the
// dense operation it must agree with, and the property/fuzz tests hold the
// two bit-for-bit equal.

// Entry is one sparse vector entry: process K's checkpoint-interval index V.
type Entry struct {
	K, V int
}

// Delta is a sparse set of vector entries, sorted by ascending K with no
// duplicate keys. The zero value is the empty delta.
type Delta []Entry

// MergeAppend folds the delta into dv by entry-wise maximum and appends the
// indices that strictly increased to buf — the sparse form of
// DV.MergeAppend, the per-message merge of a compressed piggyback. Cost is
// O(len(d)), independent of the system size.
func (d Delta) MergeAppend(dv DV, buf []int) []int {
	for _, e := range d {
		if e.V > dv[e.K] {
			dv[e.K] = e.V
			buf = append(buf, e.K)
		}
	}
	return buf
}

// MaxWith folds the delta into dv by entry-wise maximum without reporting
// increases — the sparse form of DV.MaxWith.
func (d Delta) MaxWith(dv DV) {
	for _, e := range d {
		if e.V > dv[e.K] {
			dv[e.K] = e.V
		}
	}
}

// NewInfoDelta reports, without mutating dv, whether merging the delta
// would increase any entry — the sparse form of DV.NewInfo, the O(changed)
// test FDAS's forced-checkpoint decision runs on compressed deliveries:
// a full piggyback expanding to (dv merged d) carries new information
// exactly when one of d's entries exceeds dv's.
func (dv DV) NewInfoDelta(d Delta) bool {
	for _, e := range d {
		if e.V > dv[e.K] {
			return true
		}
	}
	return false
}

// ComposePatch composes two sorted deltas into buf by assignment: writing
// the result's entries into a vector equals writing a's and then b's (b's
// value wins on a shared key). Its one caller, Kernel.DeliverBatch, composes
// a run of one sender's compressed piggybacks, whose values never decrease
// per key, so the composition is also their entry-wise maximum and the run
// merges into the receiver's vector in one pass. Cost O(len(a)+len(b));
// output sorted and duplicate-free.
func ComposePatch(a, b, buf Delta) Delta {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].K < b[j].K:
			buf = append(buf, a[i])
			i++
		case a[i].K > b[j].K:
			buf = append(buf, b[j])
			j++
		default:
			buf = append(buf, b[j]) // the later patch overwrites
			i, j = i+1, j+1
		}
	}
	buf = append(buf, a[i:]...)
	return append(buf, b[j:]...)
}

// ExpandInto writes (base merged d) into the caller's reused buffer — the
// sparse→dense bridge for consumers that genuinely need a full vector.
// base and buf must have the same length.
func ExpandInto(base DV, d Delta, buf DV) DV {
	buf.CopyFrom(base)
	d.MaxWith(buf)
	return buf
}

// Validate checks the structural invariants a delta decoded from untrusted
// bytes must satisfy before its entries index anything: keys strictly
// ascending within [0, n) and values non-negative.
func (d Delta) Validate(n int) error {
	prev := -1
	for _, e := range d {
		if e.K <= prev || e.K >= n {
			return fmt.Errorf("vclock: delta key %d out of order or outside [0,%d)", e.K, n)
		}
		if e.V < 0 {
			return fmt.Errorf("vclock: negative delta value %d for process %d", e.V, e.K)
		}
		prev = e.K
	}
	return nil
}
