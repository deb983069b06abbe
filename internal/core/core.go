// Package core implements RDT-LGC, the optimal asynchronous garbage
// collection algorithm for RDT checkpointing protocols (Section 4 of the
// paper).
//
// RDT-LGC runs locally to each process. It maintains the UC (Uncollected
// Checkpoints) vector whose entry UC[f] references the CCB (Checkpoint
// Control Block) of the stable checkpoint this process must retain because
// of process f: the most recent local checkpoint that is not causally
// preceded by the last known stable checkpoint of f (Theorem 2). A CCB
// carries the checkpoint index and a reference counter; a checkpoint is
// eliminated exactly when its counter drops to zero (Algorithm 1).
//
// The collector is driven by three events (Algorithm 2):
//
//   - OnCheckpoint, after a new stable checkpoint is durably stored and
//     before the local dependency-vector entry is incremented;
//   - OnNewInfo, after a received message's piggybacked vector is merged,
//     with the set of entries that increased;
//   - Rollback / ReleaseStale, during recovery sessions (Algorithm 3), in
//     either the global-information (LI) or the causal-knowledge (DV)
//     variant.
//
// Safety (only obsolete checkpoints are collected, Theorem 4) and
// optimality (every obsolete checkpoint identifiable from causal knowledge
// is collected, Theorem 5) are asserted against the internal/ccp oracles by
// this package's tests.
package core

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// ccb is the Checkpoint Control Block of Algorithm 1: the index of an
// uncollected stable checkpoint and the number of UC entries referencing it.
type ccb struct {
	ind int // checkpoint index
	rc  int // reference counter
}

// LGC is the per-process RDT-LGC collector state.
type LGC struct {
	self  int
	n     int
	store storage.Store
	uc    []*ccb

	// held has bit f set exactly when f ≠ self and UC[f] ≠ nil, so a
	// recovery session's ReleaseStale visits the entries that hold a
	// reference and not all n. link sets a bit, release clears it, and
	// Rollback rewrites the set with UC.
	held []uint64

	// s0 is the initial checkpoint's CCB, a field so that New pays for
	// held without a further allocation.
	s0 ccb

	// rb is Rollback's scratch: the vectors of the surviving checkpoints,
	// back to back, and the vector the process resumes with after them —
	// at most (n+1)·n ints, since no more than n checkpoints are retained
	// (Section 4.5), and kept for the next rollback.
	rb []int
	// blocks is Rollback's scratch list of the surviving checkpoints' CCBs.
	blocks []*ccb

	// spare recycles CCBs whose checkpoint was eliminated: the collect
	// path runs on every message delivery, and reusing the blocks keeps it
	// from allocating one per checkpoint. At most n blocks are live at
	// once (Section 4.5), so the freelist stays the same size.
	spare []*ccb
}

// New returns the collector for process self of n, initialized per
// Algorithm 2: the initial stable checkpoint s^0 is assumed to have been
// saved to store already (every process starts by storing s^0), so UC[self]
// references its CCB and every other entry is nil.
func New(self, n int, store storage.Store) *LGC {
	if self < 0 || self >= n {
		panic(fmt.Sprintf("core: process %d out of range [0,%d)", self, n))
	}
	g := &LGC{self: self, n: n, store: store, uc: make([]*ccb, n), held: make([]uint64, (n+63)/64), s0: ccb{ind: 0, rc: 1}}
	g.uc[self] = &g.s0
	return g
}

// release implements Algorithm 1's release(j): drop UC[j]'s reference and
// eliminate the checkpoint if it was the last one.
func (g *LGC) release(j int) error {
	b := g.uc[j]
	if b == nil {
		return nil
	}
	g.uc[j] = nil
	g.held[j>>6] &^= 1 << (j & 63)
	b.rc--
	if b.rc == 0 {
		if err := g.store.Delete(b.ind); err != nil {
			return fmt.Errorf("core: p%d collecting checkpoint %d: %w", g.self, b.ind, err)
		}
		g.spare = append(g.spare, b)
	}
	return nil
}

// newCCB returns a block for a fresh stable checkpoint, recycling a
// collected one when available.
func (g *LGC) newCCB(index int) *ccb {
	if k := len(g.spare); k > 0 {
		b := g.spare[k-1]
		g.spare = g.spare[:k-1]
		b.ind, b.rc = index, 1
		return b
	}
	return &ccb{ind: index, rc: 1}
}

// link implements Algorithm 1's link(j, i) with i = self: UC[j] references
// the CCB currently referenced by UC[self] (the last stable checkpoint).
func (g *LGC) link(j int) {
	b := g.uc[g.self]
	g.uc[j] = b
	g.held[j>>6] |= 1 << (j & 63)
	b.rc++
}

// OnCheckpoint records that stable checkpoint index was just taken and
// durably stored (Algorithm 2, "on taking checkpoint"): the previous last
// checkpoint's reference from UC[self] is released and a fresh CCB is
// created. The caller must invoke this after storage.Save succeeds and
// before incrementing its DV[self], matching the atomicity remark of
// Section 4.5.
func (g *LGC) OnCheckpoint(index int, _ vclock.DV) error {
	if err := g.release(g.self); err != nil {
		return err
	}
	g.uc[g.self] = g.newCCB(index)
	return nil
}

// OnNewInfo records that a received message carried new causal information
// about the given processes (Algorithm 2, "on receiving m"): each such
// process now denies collection of the current last stable checkpoint, so
// its UC entry is relinked. The caller passes the entries whose DV values
// increased during the merge.
func (g *LGC) OnNewInfo(increased []int, _ vclock.DV) error {
	for _, j := range increased {
		if j == g.self {
			// A process cannot receive new causal information about
			// itself (its own DV entry is the maximum in the system).
			return fmt.Errorf("core: p%d received new info about itself", g.self)
		}
		if err := g.release(j); err != nil {
			return err
		}
		g.link(j)
	}
	return nil
}

// RetainedFor reports the checkpoint index referenced by UC[f], if any.
func (g *LGC) RetainedFor(f int) (int, bool) {
	if g.uc[f] == nil {
		return 0, false
	}
	return g.uc[f].ind, true
}

// RetainedCount returns the number of distinct stable checkpoints currently
// referenced by UC entries. Section 4.5 proves this never exceeds n. The
// quadratic dedup is allocation-free and bounded by that same n.
func (g *LGC) RetainedCount() int {
	count := 0
	for i, b := range g.uc {
		if b == nil {
			continue
		}
		dup := false
		for _, prev := range g.uc[:i] {
			if prev == b {
				dup = true
				break
			}
		}
		if !dup {
			count++
		}
	}
	return count
}

// UCString renders the UC vector in the paper's Figure 4 notation: the
// referenced checkpoint index per entry, with "*" for null references.
func (g *LGC) UCString() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for j, b := range g.uc {
		if j > 0 {
			sb.WriteString(", ")
		}
		if b == nil {
			sb.WriteByte('*')
		} else {
			fmt.Fprintf(&sb, "%d", b.ind)
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// sanity reports an error if reference counts do not match the UC entries,
// or the held set does not match the non-nil entries other than self; used
// by the test suite via CheckRefCounts.
func (g *LGC) sanity() error {
	counts := map[*ccb]int{}
	held := 0
	for f, b := range g.uc {
		if b != nil {
			counts[b]++
		}
		want := b != nil && f != g.self
		if got := g.held[f>>6]>>(f&63)&1 == 1; got != want {
			return fmt.Errorf("core: p%d held bit %d is %v, want %v", g.self, f, got, want)
		}
		if want {
			held++
		}
	}
	set := 0
	for _, w := range g.held {
		set += bits.OnesCount64(w)
	}
	if set != held {
		return fmt.Errorf("core: p%d held set has %d bits set past n = %d", g.self, set-held, g.n)
	}
	for b, c := range counts {
		if b.rc != c {
			return fmt.Errorf("core: p%d CCB(ind=%d) rc=%d but %d references", g.self, b.ind, b.rc, c)
		}
	}
	return nil
}

// CheckRefCounts validates the internal reference-counting invariant: every
// CCB's counter equals the number of UC entries referencing it, and the held
// set is {f ≠ self : UC[f] ≠ nil}.
func (g *LGC) CheckRefCounts() error { return g.sanity() }
