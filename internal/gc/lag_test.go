package gc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// collectorsRow measures one seed of the collectors table's cell for the
// named collector, with global collectors run every `every` events.
func collectorsRow(t *testing.T, kind workload.Kind, n, ops, every int, collector string) sweep.Result {
	t.Helper()
	g := sweep.Default(sweep.Collectors)
	g.Workloads, g.Sizes, g.Seeds, g.Ops, g.GlobalEvery = []workload.Kind{kind}, []int{n}, 1, ops, every
	g.Collectors = []string{collector}
	res, err := g.Cells()[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecoveryLineGCUnbounded demonstrates the paper's critique of the
// simple recovery-line scheme ([5, 8]): between coordination rounds it
// bounds nothing — with control messages every 500 events its per-process
// occupancy blows past RDT-LGC's n bound on the same workload, while
// RDT-LGC (with zero control messages) never exceeds n.
func TestRecoveryLineGCUnbounded(t *testing.T) {
	const n = 4
	lgc := collectorsRow(t, workload.Uniform, n, 3000, 500, core.RDTLGC)
	lagged := collectorsRow(t, workload.Uniform, n, 3000, 500, core.RecoveryLineGC)
	if lgc.RetainedMax > n {
		t.Fatalf("RDT-LGC exceeded its bound: %d > %d", lgc.RetainedMax, n)
	}
	if lagged.RetainedMax <= n {
		t.Fatalf("lagged recovery-line GC stayed within %d <= n=%d; expected unbounded growth between rounds", lagged.RetainedMax, n)
	}
	t.Logf("per-process retained max: RDT-LGC=%d (bound %d), rl-gc@500=%d", lgc.RetainedMax, n, lagged.RetainedMax)
}

// TestSyncOptimalLaggedStillSafe checks that running the Theorem 1
// collector infrequently only delays collection — it never removes a
// non-obsolete checkpoint (safety is period-independent).
func TestSyncOptimalLaggedStillSafe(t *testing.T) {
	const n = 4
	for _, every := range []int{1, 50, 499} {
		res := collectorsRow(t, workload.Ring, n, 1500, every, core.SyncOpt)
		// At the end a final implicit round has not necessarily run;
		// everything still stored but obsolete must be explainable by lag
		// alone — i.e. with period 1 nothing obsolete remains.
		if every == 1 && res.CollectRatio != 1 {
			t.Fatalf("period-1 sync collector left obsolete checkpoints: collection ratio %v", res.CollectRatio)
		}
		if res.CollectRatio < 0.5 {
			t.Fatalf("period %d: collection ratio %.2f implausibly low", every, res.CollectRatio)
		}
	}
}
