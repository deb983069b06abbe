package vclock

// The vector operations every message pays (EXPERIMENTS.md E5/E7). Each
// path is built once by a step constructor and driven by both its
// allocation pin (testing.AllocsPerRun, exact) and its Benchmark; the
// dense merge's pin is TestMergeAppendDoesNotAllocate.

import (
	"fmt"
	"testing"
)

// benchSizes is the process-count sweep of the E5/E7 tables.
var benchSizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}

// sink keeps the measured calls' results live.
var sink int

func benchSteps(b *testing.B, mk func(n int) func()) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			step := mk(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// mergeStep is the piggyback merge exactly as the delivery path performs
// it: fold the received vector in, half of whose entries carry new
// information, and report which rose into the per-process scratch buffer.
func mergeStep(n int) func() {
	local, base, msg := New(n), New(n), New(n)
	for j := 0; j < n; j++ {
		base[j], msg[j] = j, j
		if j%2 == 1 {
			msg[j] = j + 3
		}
	}
	buf := make([]int, 0, n)
	return func() {
		local.CopyFrom(base) // rearm so the merge has work to do
		buf = local.MergeAppend(msg, buf[:0])
		sink += len(buf)
	}
}

// mergeDeltaStep is the sparse form: four changed entries whatever the
// system size, so the merge is O(changed) end to end.
func mergeDeltaStep(n int) func() {
	local := New(n)
	for j := range local {
		local[j] = j
	}
	var d Delta
	for i := 0; i < 4; i++ {
		k := i * (n / 4)
		d = append(d, Entry{K: k, V: k + 3})
	}
	buf := make([]int, 0, n)
	return func() {
		for _, e := range d {
			local[e.K] = e.K // rearm only the touched entries
		}
		buf = d.MergeAppend(local, buf[:0])
		sink += len(buf)
	}
}

// cloneStep is the copy a full-vector send piggybacks.
func cloneStep(n int) func() {
	dv := New(n)
	for j := range dv {
		dv[j] = j
	}
	return func() { sink += len(dv.Clone()) }
}

func TestMergeDeltaAllocatesNothing(t *testing.T) {
	for _, n := range []int{4, 1024} {
		if allocs := testing.AllocsPerRun(200, mergeDeltaStep(n)); allocs != 0 {
			t.Errorf("n=%d: Delta.MergeAppend with a sized buffer allocated %.0f times per op, want 0", n, allocs)
		}
	}
}

func TestCloneAllocatesOnce(t *testing.T) {
	for _, n := range []int{4, 1024} {
		if allocs := testing.AllocsPerRun(200, cloneStep(n)); allocs != 1 {
			t.Errorf("n=%d: Clone allocated %.0f times per op, want 1 (the copy)", n, allocs)
		}
	}
}

func BenchmarkMerge(b *testing.B)      { benchSteps(b, mergeStep) }
func BenchmarkMergeDelta(b *testing.B) { benchSteps(b, mergeDeltaStep) }
func BenchmarkClone(b *testing.B)      { benchSteps(b, cloneStep) }
