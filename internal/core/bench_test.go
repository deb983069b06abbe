package core_test

// RDT-LGC's collect path — Algorithm 2's two drivers, the release/link
// bookkeeping per delivery with new causal information and the CCB work per
// checkpoint — pinned allocation-free once warm and benchmarked across the
// E5/E7 size sweep.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// collectStep returns one period of the collector's steady state on an
// in-memory store: four deliveries, each carrying new information about the
// next peer in rotation, and after the fourth a checkpoint, so CCBs are
// created, released and collected. The collector is returned for its
// retained count.
func collectStep(tb testing.TB, n int) (*core.LGC, func()) {
	st := storage.NewMemStore()
	if err := st.Save(storage.Checkpoint{Index: 0, DV: vclock.New(n)}); err != nil {
		tb.Fatal(err)
	}
	lgc := core.New(0, n, st)
	dv := vclock.New(n)
	dv[0] = 1
	inc := make([]int, 1)
	i, idx := 0, 0
	return lgc, func() {
		for k := 0; k < 4; k++ {
			j := 1 + i%(n-1)
			i++
			dv[j]++
			inc[0] = j
			if err := lgc.OnNewInfo(inc, dv); err != nil {
				tb.Fatal(err)
			}
		}
		idx++
		if err := st.Save(storage.Checkpoint{Index: idx, DV: dv}); err != nil {
			tb.Fatal(err)
		}
		if err := lgc.OnCheckpoint(idx, dv); err != nil {
			tb.Fatal(err)
		}
		dv[0]++
	}
}

// TestCollectAllocatesNothingOnceWarm runs the rotation until every peer's
// UC entry has been linked and released — the CCB freelist and the store's
// spare vectors are then at their steady size — and pins what follows at
// zero allocations: collected blocks and reaped vectors are reused.
func TestCollectAllocatesNothingOnceWarm(t *testing.T) {
	for _, n := range []int{4, 1024} {
		_, step := collectStep(t, n)
		for i := 0; i < 4*n; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("n=%d: four deliveries and a checkpoint allocated %.0f times, want 0", n, allocs)
		}
	}
}

func BenchmarkCollect(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			lgc, step := collectStep(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(lgc.RetainedCount()), "retained")
		})
	}
}
