package gc

import (
	"fmt"

	"repro/internal/vclock"
)

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
// candidate vector is compared on those |F| entries alone. Process i's own
// entry is never compared, so a faulty process no other faulty process
// constrains — the sole process of a restart — takes its newest stored
// checkpoint unread: its vector could not change the answer. Every other
// candidate costs one LoadDV, which reads the vector and none of the state
// into one scratch vector, and a stored vector whose length is not n fails
// the line.
func ComputeLine(v View, faulty []int) ([]int, error) {
	var ls LineScratch
	return ls.ComputeLine(v, faulty)
}

// LineScratch is what ComputeLine reads into — the faulty set and the
// candidate vector — kept for the next line: a recovery manager that keeps
// one allocates only the line each session returns. The zero value is
// ready; a LineScratch is not safe for concurrent use.
type LineScratch struct {
	isFaulty []bool
	fs       []lastStable
	dv       vclock.DV
}

// lastStable is a faulty process and its last_s, read once per line.
type lastStable struct{ f, last int }

// ComputeLine is the package's ComputeLine over the scratch ls keeps.
func (ls *LineScratch) ComputeLine(v View, faulty []int) ([]int, error) {
	n := v.N()
	if cap(ls.isFaulty) < n {
		ls.isFaulty = make([]bool, n)
	}
	ls.isFaulty = ls.isFaulty[:n]
	clear(ls.isFaulty)
	isFaulty := ls.isFaulty
	fs := ls.fs[:0]
	for _, f := range faulty {
		if f < 0 || f >= n {
			return nil, fmt.Errorf("gc: faulty process %d out of range [0,%d)", f, n)
		}
		if !isFaulty[f] {
			isFaulty[f] = true
			fs = append(fs, lastStable{f, v.LastStable(f)})
		}
	}
	ls.fs = fs
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
			if len(fs) == 1 && fs[0].f == i && len(indices) > 0 {
				// Only i is faulty: notPreceded holds for every vector.
				line[i] = indices[len(indices)-1]
				continue
			}
			for k := len(indices) - 1; k >= 0; k-- {
				dv, err := v.Store(i).LoadDV(indices[k], ls.dv)
				if err != nil {
					return nil, fmt.Errorf("gc: recovery line: %w", err)
				}
				ls.dv = dv
				if len(dv) != n {
					return nil, fmt.Errorf("gc: recovery line: p%d checkpoint %d has a %d-entry vector, want %d",
						i, indices[k], len(dv), n)
				}
				if notPreceded(i, dv) {
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
