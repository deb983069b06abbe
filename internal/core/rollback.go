package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/vclock"
)

// This file implements Algorithm 3: RDT-LGC during a rollback of the local
// process, in both the global-information variant (LI available from the
// recovery manager) and the causal-knowledge variant (LI replaced by the
// recreated dependency vector, for uncoordinated recovery).

// Rollback executes Algorithm 3 for a process that must roll back to its
// stable checkpoint ri. If li is non-nil it is the last-interval vector
// distributed by the recovery manager (li[f] = last_s(f)+1 in the
// post-recovery pattern); if nil, the causal-knowledge variant is used. The
// method eliminates every checkpoint with index > ri, rebuilds UC from the
// surviving checkpoints per Theorem 1 (or Theorem 2 when li is nil),
// eliminates the checkpoints no entry references, and returns the recreated
// dependency vector DV(s^ri) with the self entry incremented — the vector
// the process resumes execution with, in the collector's scratch: valid
// until its next Rollback, so the kernel copies it.
func (g *LGC) Rollback(ri int, li []int) (vclock.DV, error) {
	if li != nil && len(li) != g.n {
		return nil, fmt.Errorf("core: p%d rollback: LI has %d entries, want %d", g.self, len(li), g.n)
	}

	// Line 4: eliminate the checkpoints rolled back.
	indices := g.store.Indices()
	kept := indices[:0]
	for _, idx := range indices {
		if idx > ri {
			if err := g.store.Delete(idx); err != nil {
				return nil, fmt.Errorf("core: p%d rollback: %w", g.self, err)
			}
			continue
		}
		kept = append(kept, idx)
	}
	if len(kept) == 0 || kept[len(kept)-1] != ri {
		return nil, fmt.Errorf("core: p%d rollback: checkpoint %d not in store", g.self, ri)
	}

	// Line 7: a fresh CCB for every surviving stored checkpoint.
	if err := g.loadDVs(kept); err != nil {
		return nil, err
	}
	blocks := g.blocks[:0]
	for _, idx := range kept {
		b := g.newCCB(idx)
		b.rc = 0
		blocks = append(blocks, b)
	}
	g.blocks = blocks

	// Lines 5-6: recreate DV from the checkpoint rolled back to, which is
	// kept's last: its vector was just loaded with the others, into the
	// scratch slot past them.
	dv := vclock.DV(g.rb[len(kept)*g.n:])
	copy(dv, g.survivor(len(kept)-1))
	dv[g.self]++

	// Lines 8-14: rebuild UC per Theorem 1 (LI) or Theorem 2 (DV). For each
	// f, the entry references the most recent surviving checkpoint whose
	// vector entry for f is below the bound; the bound is LI[f] with global
	// information (provided the recreated state actually depends on f's
	// last interval — otherwise nothing is retained for f) and DV[f] without.
	clear(g.held)
	for f := 0; f < g.n; f++ {
		bound := dv[f]
		if li != nil {
			if dv[f] < li[f] {
				// s_f^last does not causally precede the recreated state,
				// so by Theorem 1 no checkpoint is retained because of f.
				g.uc[f] = nil
				continue
			}
			bound = li[f]
		}
		if bound < 1 {
			g.uc[f] = nil // no stable checkpoint of f is known
			continue
		}
		// Binary search (the paper's O(log n) remark): survivor(k)[f] is
		// non-decreasing in k, so find the last k with survivor(k)[f] < bound.
		k := sort.Search(len(kept), func(k int) bool { return g.survivor(k)[f] >= bound }) - 1
		if k < 0 {
			g.uc[f] = nil
			continue
		}
		g.uc[f] = blocks[k]
		blocks[k].rc++
		if f != g.self {
			g.held[f>>6] |= 1 << (f & 63)
		}
	}

	// Lines 15-17: eliminate every surviving checkpoint left unreferenced.
	for _, b := range blocks {
		if b.rc == 0 {
			if err := g.store.Delete(b.ind); err != nil {
				return nil, fmt.Errorf("core: p%d rollback: %w", g.self, err)
			}
			g.spare = append(g.spare, b)
		}
	}
	return dv, nil
}

// loadDVs reads the dependency vector of every surviving checkpoint, one
// LoadDV each — no application state: a rollback's only reads of stable
// storage — into g.rb, which it sizes for them and one vector more (the k-th
// is survivor(k)). A stored vector is outside input, so one whose length is
// not n fails here rather than being indexed.
func (g *LGC) loadDVs(kept []int) error {
	n := g.n
	if size := (len(kept) + 1) * n; cap(g.rb) < size {
		g.rb = make([]int, size)
	} else {
		g.rb = g.rb[:size]
	}
	for k, idx := range kept {
		slot := g.rb[k*n : (k+1)*n]
		dv, err := g.store.LoadDV(idx, slot[:0])
		if err != nil {
			return fmt.Errorf("core: p%d rollback: %w", g.self, err)
		}
		if len(dv) != n {
			return fmt.Errorf("core: p%d rollback: checkpoint %d has a %d-entry vector, want %d",
				g.self, idx, len(dv), n)
		}
		copy(slot, dv) // a no-op when the store filled slot, as both stores do
	}
	return nil
}

// survivor returns the vector loadDVs read for the k-th surviving
// checkpoint.
func (g *LGC) survivor(k int) vclock.DV { return g.rb[k*g.n : (k+1)*g.n] }

// ReleaseStale is the recovery-session step for a process whose
// recovery-line component is its volatile checkpoint: it does not roll back,
// and with the global last-interval vector available it releases every entry
// UC[f] with DV[f] < LI[f] — the last stable checkpoint of f does not
// causally precede the local volatile state, so by Theorem 1 nothing needs
// to be retained because of f. dv is the process's current vector.
//
// Only the held set is walked, in ascending f, so a session costs each
// survivor O(n/64 + held) rather than n releases; an entry outside the set
// is nil, and releasing it would do nothing.
func (g *LGC) ReleaseStale(li []int, dv vclock.DV) error {
	if len(li) != g.n || dv.Len() != g.n {
		return fmt.Errorf("core: p%d ReleaseStale: vector length mismatch", g.self)
	}
	for w, word := range g.held {
		for ; word != 0; word &= word - 1 {
			f := w<<6 | bits.TrailingZeros64(word)
			if dv[f] < li[f] {
				if err := g.release(f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
