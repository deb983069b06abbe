package gc

import "fmt"

// ComputeLine determines the recovery line R_F per Lemma 1 from a global
// view, exactly as a centralized recovery manager would: for each process i
// the component is the largest checkpoint — the volatile state is allowed
// only for non-faulty processes — not causally preceded by the last stable
// checkpoint of any faulty process. Equation 2 reduces causal precedence to
// a vector comparison: s_f^last → c ⟺ last_s(f) < DV(c)[f].
//
// The returned slice maps process → checkpoint index, with last_s(i)+1
// denoting a volatile component.
//
// Equation 2 reads only the faulty entries, so the line costs n·|F| vector
// compares, not n²: each faulty process's last_s is read once, and a
// candidate vector is compared on those |F| entries alone.
func ComputeLine(v View, faulty []int) ([]int, error) {
	n := v.N()
	isFaulty := make([]bool, n)
	type lastStable struct{ f, last int }
	fs := make([]lastStable, 0, len(faulty))
	for _, f := range faulty {
		if f < 0 || f >= n {
			return nil, fmt.Errorf("gc: faulty process %d out of range [0,%d)", f, n)
		}
		if !isFaulty[f] {
			isFaulty[f] = true
			fs = append(fs, lastStable{f, v.LastStable(f)})
		}
	}
	notPreceded := func(i int, dv []int) bool {
		for _, s := range fs {
			if s.f != i && dv[s.f] > s.last {
				return false
			}
		}
		return true
	}
	line := make([]int, n)
	for i := 0; i < n; i++ {
		found := false
		if !isFaulty[i] && notPreceded(i, v.CurrentDV(i)) {
			line[i] = v.LastStable(i) + 1
			found = true
		}
		if !found {
			indices := v.Store(i).Indices()
			for k := len(indices) - 1; k >= 0; k-- {
				cp, err := v.Store(i).Load(indices[k])
				if err != nil {
					return nil, fmt.Errorf("gc: recovery line: %w", err)
				}
				if notPreceded(i, cp.DV) {
					line[i] = indices[k]
					found = true
					break
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("gc: recovery line: no component for p%d", i)
		}
	}
	return line, nil
}
