package sim_test

// The deterministic engine end to end: one whole seeded run per op — the
// grid cell the sweep experiments are made of — pinned at n = 8 and
// benchmarked across the E5 size sweep.

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// runStep returns a whole 20n-operation run under FDAS + RDT-LGC, runner
// construction included. The dense run takes the uniform workload; the
// compressed one client-server traffic — the repeat-pair shape compression
// targets and, unlike uniform scripts, FIFO per pair, which it requires.
func runStep(tb testing.TB, n int, compress bool) func() {
	kind := workload.Uniform
	if compress {
		kind = workload.ClientServer
	}
	script := workload.Generate(kind, workload.Options{N: n, Ops: 20 * n, Seed: 29})
	cfg := fdasLGC(n)
	cfg.Compress = compress
	return func() {
		r, err := sim.NewRunner(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if err := r.Run(script); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRunAllocationBudget pins the seeded n = 8 run at its exact count: one
// allocation more per message would add 60 to the dense run's and 84 to
// the compressed run's. The count is exact: the runner's in-transit table
// is a slice, so no map growth that depends on a hash seed moves it
// (-count=50 at GOMAXPROCS 1, 2 and 4 and under -race all read it). The
// counts belong to the toolchain go.mod names; re-record them when it
// changes.
func TestRunAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		compress bool
		want     float64
	}{{false, 535}, {true, 699}} {
		if allocs := testing.AllocsPerRun(100, runStep(t, 8, c.compress)); allocs != c.want {
			t.Errorf("compress=%v: a 160-operation run at n=8 allocated %.0f times, want %.0f", c.compress, allocs, c.want)
		}
	}
}

func benchRun(b *testing.B, compress bool) {
	// One op is a whole experiment, which at n = 1024 costs most of a
	// second: the per-message benchmarks are what cover the large sizes.
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			step := runStep(b, n, compress)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

func BenchmarkRun(b *testing.B)           { benchRun(b, false) }
func BenchmarkRunCompressed(b *testing.B) { benchRun(b, true) }
