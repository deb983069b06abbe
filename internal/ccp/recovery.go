package ccp

import "fmt"

// This file implements recovery-line determination (Lemma 1), the
// obsolete-checkpoint characterization (Theorem 1), and the brute-force
// needlessness predicate (Definition 7) used as a cross-check oracle.

// RecoveryLine computes R_F per Lemma 1 for the faulty set F (process
// indices): for each process i, the component is c_i^k with
//
//	k = max(γ | ∀ p_f ∈ F : s_f^last ↛ c_i^γ).
//
// The returned slice maps process → checkpoint index; index
// VolatileIndex(i) denotes the volatile checkpoint of a non-faulty process.
// An empty faulty set yields the line of volatile checkpoints.
func (c *CCP) RecoveryLine(faulty []int) []int {
	for _, f := range faulty {
		if f < 0 || f >= c.n {
			panic(fmt.Sprintf("ccp: faulty process %d out of range [0,%d)", f, c.n))
		}
	}
	line := make([]int, c.n)
	for i := 0; i < c.n; i++ {
		k := -1
		for g := c.VolatileIndex(i); g >= 0; g-- {
			if !c.precededByAnyLast(faulty, CheckpointID{Process: i, Index: g}) {
				k = g
				break
			}
		}
		if k < 0 {
			// Unreachable: s_i^0 is never causally preceded by another
			// checkpoint, so the maximum always exists (Lemma 1 proof).
			panic(fmt.Sprintf("ccp: no recovery-line component for p_%d", i))
		}
		line[i] = k
	}
	return line
}

// precededByAnyLast reports whether s_f^last → id for some f in faulty.
func (c *CCP) precededByAnyLast(faulty []int, id CheckpointID) bool {
	for _, f := range faulty {
		last := CheckpointID{Process: f, Index: c.lastS[f]}
		if c.CausallyPrecedes(last, id) {
			return true
		}
	}
	return false
}

// Obsolete reports whether stable checkpoint s_i^γ is obsolete per the
// characterization of Theorem 1: it is obsolete iff there is no process f
// with s_f^last → c_i^{γ+1} and s_f^last ↛ s_i^γ.
func (c *CCP) Obsolete(i, gamma int) bool {
	id := CheckpointID{Process: i, Index: gamma}
	c.check(id)
	if !c.Stable(id) {
		panic(fmt.Sprintf("ccp: Obsolete(%v) on a volatile checkpoint", id))
	}
	next := CheckpointID{Process: i, Index: gamma + 1}
	for f := 0; f < c.n; f++ {
		last := CheckpointID{Process: f, Index: c.lastS[f]}
		if c.CausallyPrecedes(last, next) && !c.CausallyPrecedes(last, id) {
			return false
		}
	}
	return true
}

// ObsoleteSet returns all obsolete stable checkpoints of the pattern.
func (c *CCP) ObsoleteSet() []CheckpointID {
	var out []CheckpointID
	for i := 0; i < c.n; i++ {
		for g := 0; g <= c.lastS[i]; g++ {
			if c.Obsolete(i, g) {
				out = append(out, CheckpointID{Process: i, Index: g})
			}
		}
	}
	return out
}

// ObsoleteStored counts the pattern's obsolete stable checkpoints and, of
// those, the ones a collector left in storage: stored(i) lists the indices
// process i's store holds. A collector that misses none leaves kept = 0.
func (c *CCP) ObsoleteStored(stored func(i int) []int) (obsolete, kept int) {
	for i := 0; i < c.n; i++ {
		for g := 0; g <= c.lastS[i]; g++ {
			if c.Obsolete(i, g) {
				obsolete++
			}
		}
		for _, g := range stored(i) {
			if g <= c.lastS[i] && c.Obsolete(i, g) {
				kept++
			}
		}
	}
	return obsolete, kept
}

// NeedlessBruteForce evaluates Definition 7 literally: s_i^γ is needless in
// the cut iff it belongs to no recovery line R_F over all 2^n faulty sets
// F ⊆ Π. It is exponential in n and exists only as a test oracle for
// Theorem 1 and Lemma 2.
func (c *CCP) NeedlessBruteForce(i, gamma int) bool {
	id := CheckpointID{Process: i, Index: gamma}
	c.check(id)
	if !c.Stable(id) {
		panic(fmt.Sprintf("ccp: NeedlessBruteForce(%v) on a volatile checkpoint", id))
	}
	if c.n > 20 {
		panic("ccp: NeedlessBruteForce is exponential; n too large")
	}
	for mask := 0; mask < 1<<uint(c.n); mask++ {
		var faulty []int
		for f := 0; f < c.n; f++ {
			if mask&(1<<uint(f)) != 0 {
				faulty = append(faulty, f)
			}
		}
		if c.RecoveryLine(faulty)[i] == gamma {
			return false
		}
	}
	return true
}

// MaxConsistentBelow returns the maximum consistent global checkpoint with
// component indices bounded by avail, computed by standard rollback
// propagation (decrement to fixpoint). Unlike RecoveryLine it does not
// assume rollback-dependency trackability, so it is the correct recovery
// rule for non-RDT patterns — on the Figure 2 pattern it exhibits the
// domino effect. On RD-trackable patterns it coincides with Lemma 1's
// recovery line (a property the tests assert).
func (c *CCP) MaxConsistentBelow(avail []int) []int {
	if len(avail) != c.n {
		panic(fmt.Sprintf("ccp: MaxConsistentBelow got %d bounds for %d processes", len(avail), c.n))
	}
	line := make([]int, c.n)
	for i, a := range avail {
		if a < 0 || a > c.VolatileIndex(i) {
			panic(fmt.Sprintf("ccp: avail[%d] = %d out of range", i, a))
		}
		line[i] = a
	}
	// Every index is available, so an orphan steps back one checkpoint; it
	// never passes s_j^0, which nothing of another process precedes.
	_ = c.Propagate(line, func(_, j int) (int, error) { return line[j] - 1, nil })
	return line
}

// Propagate runs rollback propagation on line, in place, to a fixpoint:
// while line[i]'s member causally precedes line[j]'s, the latter is an
// orphan, and p_j rolls back to back(i, j) — an index below line[j], its
// newest admissible checkpoint — or the propagation stops with back's error
// (Equation 2). Each rollback only lowers the line, so the fixpoint is the
// maximum consistent line below the start that back admits.
func (c *CCP) Propagate(line []int, back func(i, j int) (int, error)) error {
	for changed := true; changed; {
		changed = false
		for i := 0; i < c.n; i++ {
			for j := 0; j < c.n; j++ {
				if i == j {
					continue
				}
				for c.CausallyPrecedes(
					CheckpointID{Process: i, Index: line[i]},
					CheckpointID{Process: j, Index: line[j]}) {
					k, err := back(i, j)
					if err != nil {
						return err
					}
					line[j] = k
					changed = true
				}
			}
		}
	}
	return nil
}

// NeedlessSingleFault evaluates the single-fault reduction of Lemma 2:
// s_i^γ is needless iff it belongs to no recovery line R_{p_f} for a single
// faulty process p_f.
func (c *CCP) NeedlessSingleFault(i, gamma int) bool {
	id := CheckpointID{Process: i, Index: gamma}
	c.check(id)
	for f := 0; f < c.n; f++ {
		if c.RecoveryLine([]int{f})[i] == gamma {
			return false
		}
	}
	return true
}
