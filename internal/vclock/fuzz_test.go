package vclock_test

import (
	"testing"

	"repro/internal/vclock"
)

// FuzzDelta drives a fuzzer-chosen operation stream through the sparse
// delta path and the dense reference side by side; any divergence —
// resulting vectors, changed-index reports, or decision answers — is a
// bug in the sparse implementation. The stream bytes encode alternating
// (key, value) pairs that build deltas over a small vector.
func FuzzDelta(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{7, 0, 7, 1, 7, 2, 0, 0})
	f.Add([]byte{255, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		dense := vclock.New(n)
		sparse := vclock.New(n)
		var d vclock.Delta
		for i := 0; i+1 < len(data); i += 2 {
			k := int(data[i]) % n
			v := int(data[i+1])
			// Keep the delta sorted and duplicate-free: a new key below or
			// equal to the last flushes the accumulated delta as one
			// operation against both implementations.
			if len(d) > 0 && k <= d[len(d)-1].K {
				applyBoth(t, dense, sparse, d)
				d = d[:0]
			}
			d = append(d, vclock.Entry{K: k, V: v})
		}
		applyBoth(t, dense, sparse, d)
	})
}

func applyBoth(t *testing.T, dense, sparse vclock.DV, d vclock.Delta) {
	t.Helper()
	if err := d.Validate(len(dense)); err != nil {
		t.Fatalf("harness built an invalid delta %v: %v", d, err)
	}
	full := expand(dense, d)
	if dense.NewInfo(full) != sparse.NewInfoDelta(d) {
		t.Fatalf("NewInfo mismatch: dv=%v delta=%v", dense, d)
	}
	gd := dense.MergeAppend(full, nil)
	gs := d.MergeAppend(sparse, nil)
	if !dense.Equal(sparse) {
		t.Fatalf("vectors diverged: dense=%v sparse=%v after %v", dense, sparse, d)
	}
	if len(gd) != len(gs) {
		t.Fatalf("changed reports differ: %v vs %v", gd, gs)
	}
	for i := range gd {
		if gd[i] != gs[i] {
			t.Fatalf("changed reports differ: %v vs %v", gd, gs)
		}
	}
}
