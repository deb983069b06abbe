package sweep

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// rows runs one seed of the table's cells on workload kind at size n and
// returns their results by variant name.
func rows(t *testing.T, tab Table, kind workload.Kind, n, ops int, variants ...string) map[string]Result {
	t.Helper()
	g := Default(tab)
	g.Workloads, g.Sizes, g.Seeds, g.Ops = []workload.Kind{kind}, []int{n}, 1, ops
	if tab == Collectors {
		g.Collectors = variants
	} else {
		g.Protocols = variants
	}
	results, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Result{}
	for _, r := range results {
		out[r.Cell.Variant()] = r
	}
	return out
}

// TestCollectorsTableBounds runs one workload under every collector and
// checks the orderings the paper predicts: RDT-LGC stays within the
// n-per-process bound; the synchronous optimum collects every obsolete
// checkpoint and retains the least; no-gc collects none.
func TestCollectorsTableBounds(t *testing.T) {
	const n = 4
	r := rows(t, Collectors, workload.Uniform, n, 300, core.NoGC, core.RDTLGC, core.SyncOpt, core.RecoveryLineGC)
	lgc, nogc, sync := r[core.RDTLGC], r[core.NoGC], r[core.SyncOpt]
	if lgc.RetainedMax > n {
		t.Errorf("RDT-LGC per-process retained max = %d, exceeds bound n = %d", lgc.RetainedMax, n)
	}
	if sync.CollectRatio != 1 {
		t.Errorf("sync-opt collection ratio = %v, want 1 (it collects every obsolete checkpoint)", sync.CollectRatio)
	}
	// A no-gc ratio of 0 also shows the run had obsolete checkpoints to
	// collect, without which every other check here would be vacuous.
	if nogc.CollectRatio != 0 {
		t.Errorf("no-gc collection ratio = %v, want 0", nogc.CollectRatio)
	}
	if !(sync.RetainedMean <= lgc.RetainedMean && lgc.RetainedMean <= nogc.RetainedMean) {
		t.Errorf("retained/proc mean sync-opt %.2f ≤ RDT-LGC %.2f ≤ no-gc %.2f does not hold",
			sync.RetainedMean, lgc.RetainedMean, nogc.RetainedMean)
	}
}

// TestOccupancySamplesEveryEvent checks the collectors table's sampling:
// one per-process sample after every event, and a global peak no smaller
// than any one process's.
func TestOccupancySamplesEveryEvent(t *testing.T) {
	c := Cell{Table: Collectors, Workload: workload.Ring, N: 3, Ops: 90, PCheckpoint: 0.2, GlobalEvery: 1}
	st, err := core.NewStack("FDAS", core.RDTLGC)
	if err != nil {
		t.Fatal(err)
	}
	var occ occupancy
	if _, err := c.simulate(0, st, &occ); err != nil {
		t.Fatal(err)
	}
	script, _ := c.script(0)
	if occ.samples != c.N*len(script.Ops) {
		t.Errorf("%d samples, want n × events = %d", occ.samples, c.N*len(script.Ops))
	}
	if occ.procMax == 0 || occ.globalMax < occ.procMax || occ.mean() > float64(occ.procMax) {
		t.Errorf("inconsistent occupancy %+v", occ)
	}
}

// TestRollbackTablePropagation measures how far a crash drags non-faulty
// processes back under each protocol — the comparison of Agbaria et al.
// that the paper cites: RDT protocols bound rollback propagation;
// uncoordinated checkpointing suffers the domino effect.
func TestRollbackTablePropagation(t *testing.T) {
	r := rows(t, Rollback, workload.Uniform, 6, 1200, "FDAS", "CBR", "none")
	fdas, none := r["FDAS"], r["none"]
	// RDT protocols keep rollback shallow: the mean stable rollback per
	// non-faulty process stays below one checkpoint.
	for _, name := range []string{"FDAS", "CBR"} {
		if r[name].MeanRolled >= 1 {
			t.Errorf("%s: mean stable rollback %.2f ≥ 1 checkpoint", name, r[name].MeanRolled)
		}
		if r[name].DominoToStart != 0 {
			t.Errorf("%s: %d crashes dominoed to the initial state", name, r[name].DominoToStart)
		}
	}
	// Uncoordinated checkpointing rolls back much further.
	if none.MeanRolled <= 2*fdas.MeanRolled {
		t.Errorf("none: mean rollback %.2f not clearly worse than FDAS %.2f", none.MeanRolled, fdas.MeanRolled)
	}
	if none.MaxRolled <= fdas.MaxRolled {
		t.Errorf("none: max rollback %d not worse than FDAS %d", none.MaxRolled, fdas.MaxRolled)
	}
	t.Logf("mean/max stable checkpoints rolled back per crash per process: FDAS %.2f/%d, CBR %.2f/%d, none %.2f/%d (domino %d)",
		fdas.MeanRolled, fdas.MaxRolled, r["CBR"].MeanRolled, r["CBR"].MaxRolled,
		none.MeanRolled, none.MaxRolled, none.DominoToStart)
}
