package gc

import "fmt"

// Synchronous evaluates Theorem 1 with full global knowledge and collects
// every obsolete checkpoint: for each process i, the retained set is
//
//	{ s_i^last } ∪ { max γ with DV(s_i^γ)[f] ≤ last_s(f)   —  i.e. the most
//	  recent checkpoint not causally preceded by s_f^last — for every f
//	  whose s_f^last causally precedes v_i }.
//
// Everything else is obsolete (Theorem 1) and deleted. This is the optimal
// collection achievable by any garbage collector and models the
// coordinator-based algorithm of Wang et al. [21]; it is *not*
// asynchronous — it reads state a real system could only gather with
// reliable control messages. The experiments use it as the upper bound
// RDT-LGC's causal knowledge is measured against.
type Synchronous struct{}

// NewSynchronous returns the global Theorem 1 collector.
func NewSynchronous() *Synchronous { return &Synchronous{} }

// Name implements Global.
func (*Synchronous) Name() string { return "sync-theorem1" }

// Collect implements Global.
func (*Synchronous) Collect(v View) error {
	n := v.N()
	for i := 0; i < n; i++ {
		store := v.Store(i)
		indices := store.Indices()
		if len(indices) == 0 {
			return fmt.Errorf("gc: sync: p%d has no stable checkpoints", i)
		}
		// Read the stored vectors once; entry values are non-decreasing in
		// the checkpoint index.
		dvs := make(map[int][]int, len(indices))
		for _, idx := range indices {
			dv, err := store.LoadDV(idx, nil)
			if err != nil {
				return fmt.Errorf("gc: sync: %w", err)
			}
			if len(dv) != n {
				return fmt.Errorf("gc: sync: p%d checkpoint %d has a %d-entry vector, want %d", i, idx, len(dv), n)
			}
			dvs[idx] = dv
		}
		keep := map[int]bool{indices[len(indices)-1]: true} // s_i^last
		cur := v.CurrentDV(i)
		for f := 0; f < n; f++ {
			if f == i {
				continue
			}
			lastF := v.LastStable(f)
			// s_f^last → v_i  ⟺  last_s(f) < DV(v_i)[f]  (Equation 2).
			if cur[f] <= lastF {
				continue
			}
			// Retain the most recent stored checkpoint not causally
			// preceded by s_f^last. Needlessness is stable (Lemma 3), so
			// the true maximum is always still stored.
			for k := len(indices) - 1; k >= 0; k-- {
				if dvs[indices[k]][f] <= lastF {
					keep[indices[k]] = true
					break
				}
			}
		}
		for _, idx := range indices {
			if !keep[idx] {
				if err := store.Delete(idx); err != nil {
					return fmt.Errorf("gc: sync: %w", err)
				}
			}
		}
	}
	return nil
}
