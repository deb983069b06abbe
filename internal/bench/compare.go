package bench

import "fmt"

// allocEpsilon absorbs float jitter in allocs/op (amortized warm-up
// allocations make the per-op count fractional). It scales with the
// baseline — a small absolute wobble on alloc-heavy cases passes while a
// doubling of a fractional-alloc case (say 0.25 → 0.5 on the collect
// path) still fails — but is capped at 2 so the gate on thousand-alloc
// cases stays tight: a genuine regression adds at least one allocation
// per operation somewhere, often one per message (hundreds per op).
func allocEpsilon(base float64) float64 {
	return min(2, max(0.05, 0.02*base))
}

// Regression is one gate violation found by Compare.
type Regression struct {
	Path string
	N    int
	// Kind is "allocs/op" or "missing".
	Kind      string
	Base, Cur float64
	Limit     float64
}

func (r Regression) String() string {
	if r.Kind == "missing" {
		return fmt.Sprintf("%s n=%d: present in baseline but not measured — bench coverage must not shrink", r.Path, r.N)
	}
	return fmt.Sprintf("%s n=%d: %s regressed: baseline %.2f, now %.2f (limit %.2f)", r.Path, r.N, r.Kind, r.Base, r.Cur, r.Limit)
}

// Compare gates current results against a baseline document:
//
//   - allocs/op (machine-independent): any increase beyond the case's
//     AllocSlack fails, on every case;
//   - a baseline case missing from the current run fails, so the gate
//     cannot be dodged by deleting a benchmark.
//
// ns/op is not gated: on a shared host a microbenchmark's wall clock trips
// on different unrelated cases run to run, and time has a judge that
// repeats (`go run ./benchmark`). Cases present only in the current run
// are new coverage and pass. The gating policy (AllocSlack) comes from the
// current suite, not the baseline file, so policy changes ship with the
// code they describe.
func Compare(cases []Case, base Doc, cur []Result) []Regression {
	policy := make(map[string]Case, len(cases))
	for _, c := range cases {
		policy[key(c.Path, c.N)] = c
	}
	curBy := make(map[string]Result, len(cur))
	for _, r := range cur {
		curBy[key(r.Path, r.N)] = r
	}

	var regs []Regression
	for _, b := range base.Results {
		k := key(b.Path, b.N)
		c, ok := curBy[k]
		if !ok {
			regs = append(regs, Regression{Path: b.Path, N: b.N, Kind: "missing"})
			continue
		}
		// An unknown case gets the zero policy: allocs exact.
		allocLimit := b.AllocsPerOp + policy[k].AllocSlack + allocEpsilon(b.AllocsPerOp)
		if c.AllocsPerOp > allocLimit {
			regs = append(regs, Regression{
				Path: b.Path, N: b.N, Kind: "allocs/op",
				Base: b.AllocsPerOp, Cur: c.AllocsPerOp, Limit: allocLimit,
			})
		}
	}
	return regs
}

func key(path string, n int) string { return fmt.Sprintf("%s#%d", path, n) }
