package vclock_test

import (
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// randDV returns a random vector of length n with small entries.
func randDV(rng *rand.Rand, n int) vclock.DV {
	dv := vclock.New(n)
	for i := range dv {
		dv[i] = rng.Intn(8)
	}
	return dv
}

// randDelta returns a random valid delta over n processes.
func randDelta(rng *rand.Rand, n int) vclock.Delta {
	var d vclock.Delta
	for k := 0; k < n; k++ {
		if rng.Intn(3) == 0 {
			d = append(d, vclock.Entry{K: k, V: rng.Intn(10)})
		}
	}
	return d
}

// expand returns base merged with d as a fresh dense vector (the reference
// the sparse operations must agree with).
func expand(base vclock.DV, d vclock.Delta) vclock.DV {
	out := base.Clone()
	for _, e := range d {
		if e.V > out[e.K] {
			out[e.K] = e.V
		}
	}
	return out
}

// TestSparseMergeEqualsDense drives a random operation stream through the
// dense reference and the sparse path and demands bit-for-bit equality:
// MergeAppend over a delta must behave exactly like MergeAppend over the
// expanded full vector, including the changed-index report.
func TestSparseMergeEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		dense := randDV(rng, n)
		sparse := dense.Clone()
		for step := 0; step < 30; step++ {
			d := randDelta(rng, n)
			full := expand(dense, d) // what a full-vector piggyback would carry

			// Decision parity before mutation.
			if dense.NewInfo(full) != sparse.NewInfoDelta(d) {
				t.Fatalf("NewInfo mismatch: dense=%v delta=%v", dense, d)
			}

			gotDense := dense.MergeAppend(full, nil)
			gotSparse := d.MergeAppend(sparse, nil)
			if !dense.Equal(sparse) {
				t.Fatalf("vectors diverged: dense=%v sparse=%v", dense, sparse)
			}
			if len(gotDense) != len(gotSparse) {
				t.Fatalf("changed-index reports differ: %v vs %v", gotDense, gotSparse)
			}
			for i := range gotDense {
				if gotDense[i] != gotSparse[i] {
					t.Fatalf("changed-index reports differ: %v vs %v", gotDense, gotSparse)
				}
			}
		}
	}
}

func TestExpandInto(t *testing.T) {
	base := vclock.DV{1, 2, 3, 4}
	d := vclock.Delta{{K: 0, V: 5}, {K: 2, V: 1}}
	buf := vclock.New(4)
	got := vclock.ExpandInto(base, d, buf)
	want := vclock.DV{5, 2, 3, 4}
	if !got.Equal(want) {
		t.Fatalf("ExpandInto = %v, want %v", got, want)
	}
	if !base.Equal(vclock.DV{1, 2, 3, 4}) {
		t.Fatal("ExpandInto mutated its base")
	}
}

func TestDeltaValidate(t *testing.T) {
	cases := []struct {
		d  vclock.Delta
		n  int
		ok bool
	}{
		{nil, 4, true},
		{vclock.Delta{{K: 0, V: 1}, {K: 3, V: 2}}, 4, true},
		{vclock.Delta{{K: 3, V: 2}, {K: 0, V: 1}}, 4, false}, // out of order
		{vclock.Delta{{K: 1, V: 1}, {K: 1, V: 2}}, 4, false}, // duplicate key
		{vclock.Delta{{K: 4, V: 1}}, 4, false},               // out of range
		{vclock.Delta{{K: -1, V: 1}}, 4, false},              // negative key
		{vclock.Delta{{K: 0, V: -1}}, 4, false},              // negative value
	}
	for i, tc := range cases {
		if err := tc.d.Validate(tc.n); (err == nil) != tc.ok {
			t.Errorf("case %d: Validate(%v, %d) = %v, want ok=%v", i, tc.d, tc.n, err, tc.ok)
		}
	}
}
