package storage

// The checkpoint record codec — what every forced checkpoint on a durable
// store encodes and every replay decodes — pinned at its three allocations
// and benchmarked across the E5/E7 size sweep.

import (
	"fmt"
	"slices"
	"testing"
)

var (
	sink    int
	sinkBuf []byte
)

// codecStep encodes a full record of an n-entry vector and 256 B of
// application state into a fresh buffer and decodes it again.
func codecStep(tb testing.TB, n int) func() {
	cp := Checkpoint{Process: 1, Index: 42, DV: make([]int, n), State: make([]byte, 256)}
	for j := range cp.DV {
		cp.DV[j] = j
	}
	return func() {
		rec, err := DecodeRecord(AppendRecord(nil, cp))
		if err != nil {
			tb.Fatal(err)
		}
		sink += rec.Index
	}
}

// TestRecordCodecAllocationBudget: the record is sized exactly up front —
// one slices.Grow and no regrowth, no allocation per field — and the
// decoder allocates the vector and the state it returns and nothing else.
// What a Grow from nil costs is measured, not assumed: one allocation, but
// two in a race-detector build, where the compiler does not fuse its make
// into the append.
func TestRecordCodecAllocationBudget(t *testing.T) {
	grow := testing.AllocsPerRun(100, func() { sinkBuf = slices.Grow([]byte(nil), 64) })
	for _, n := range []int{4, 1024} {
		if allocs := testing.AllocsPerRun(200, codecStep(t, n)); allocs != grow+2 {
			t.Errorf("n=%d: record encode+decode allocated %.0f times, want %.0f (record, vector, state)", n, allocs, grow+2)
		}
	}
}

func BenchmarkRecordCodec(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			step := codecStep(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
