package gc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// naive is an independent retention oracle for RDT-LGC, and the ablation of
// its data structure: it applies exactly the same retention rule (Theorem 2
// via the stored dependency vectors) but without the UC vector and
// reference-counted CCBs of Algorithm 1 — instead, after every event it
// rescans the whole store, recomputes the retained set
//
//	{ s^last } ∪ { newest stored γ with DV(s^γ)[f] < DV(v)[f],
//	               for every f with DV(v)[f] ≥ 1 }
//
// and deletes the rest. It collects the identical checkpoints (asserted by
// the equivalence tests) at O(n · stored) cost per event plus a store load
// per retained candidate, versus RDT-LGC's O(new entries) pointer
// bookkeeping. The benchmark pair BenchmarkAblationNaive /
// BenchmarkAblationRefcount quantifies what Algorithm 1 buys.
type naive struct {
	self  int
	n     int
	store storage.Store
	cur   vclock.DV
	lastS int

	// stale[f] is set when a recovery session with global information
	// releases f (Theorem 1): nothing is retained because of f until a
	// message brings new information about f, just as RDT-LGC's UC[f] stays
	// nil until OnNewInfo relinks it. The mark outlives the session's own
	// sweep: a later sweep bounded by DV[f] alone would retain a checkpoint
	// the session showed obsolete.
	stale []bool
}

// naiveFactory returns the scan-based collector for process self of n; the
// initial checkpoint s^0 must already be stored.
func naiveFactory(self, n int, store storage.Store) gc.Local {
	g := &naive{self: self, n: n, store: store, cur: vclock.New(n), stale: make([]bool, n)}
	g.cur[self] = 1
	return g
}

func (g *naive) OnCheckpoint(index int, dv vclock.DV) error {
	g.cur.CopyFrom(dv)
	g.cur[g.self]++ // the caller increments after this hook
	g.lastS = index
	return g.sweep()
}

func (g *naive) OnNewInfo(increased []int, dv vclock.DV) error {
	for _, f := range increased {
		g.stale[f] = false
	}
	g.cur.CopyFrom(dv)
	return g.sweep()
}

// sweep recomputes the retained set from scratch and deletes the rest.
func (g *naive) sweep() error {
	indices := g.store.Indices()
	dvs := make([]vclock.DV, len(indices))
	for k, idx := range indices {
		cp, err := g.store.Load(idx)
		if err != nil {
			return fmt.Errorf("naive: %w", err)
		}
		dvs[k] = cp.DV
	}
	keep := make(map[int]bool, g.n)
	keep[g.lastS] = true
	for f := 0; f < g.n; f++ {
		if f == g.self || g.cur[f] < 1 || g.stale[f] {
			continue
		}
		for k := len(indices) - 1; k >= 0; k-- {
			if dvs[k][f] < g.cur[f] {
				keep[indices[k]] = true
				break
			}
		}
	}
	for _, idx := range indices {
		if !keep[idx] {
			if err := g.store.Delete(idx); err != nil {
				return fmt.Errorf("naive: %w", err)
			}
		}
	}
	return nil
}

// Rollback is the scan-based equivalent of Algorithm 3.
func (g *naive) Rollback(ri int, li []int) (vclock.DV, error) {
	dv, err := gc.RollbackStore(g.store, g.self, ri)
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}
	g.cur.CopyFrom(dv)
	g.lastS = ri
	clear(g.stale)
	if li != nil {
		// With global information the bound for f is LI[f] when the
		// recreated state depends on f's last interval, and nothing is
		// retained for f otherwise. dv[f] ≤ LI[f] on a consistent line, so
		// the bound in the first case is dv[f] itself.
		g.markStale(li, dv)
	}
	return dv, g.sweep()
}

func (g *naive) ReleaseStale(li []int, dv vclock.DV) error {
	g.cur.CopyFrom(dv)
	g.markStale(li, dv)
	return g.sweep()
}

// markStale marks every f whose last interval dv does not depend on
// (dv[f] < li[f]): nothing is retained because of f until new information
// about f arrives.
func (g *naive) markStale(li []int, dv vclock.DV) {
	for f := 0; f < g.n; f++ {
		if f != g.self && dv[f] < li[f] {
			g.stale[f] = true
		}
	}
}

// TestNaiveEquivalentToRDTLGC checks the scan-based ablation retains
// exactly the same checkpoints as the CCB/UC implementation after every
// event of random executions — they implement the same retention rule with
// different data structures.
func TestNaiveEquivalentToRDTLGC(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		script := ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 40 + rng.Intn(40), PLoss: 0.05})

		mk := func(local func(int, int, storage.Store) gc.Local) *sim.Runner {
			r, err := sim.NewRunner(sim.Config{N: n, Protocol: fdas, LocalGC: local})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		a, b := mk(lgcFactory), mk(naiveFactory)

		if err := a.Run(script); err != nil {
			t.Fatal(err)
		}
		if err := b.Run(script); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			ia, ib := a.Store(i).Indices(), b.Store(i).Indices()
			if !reflect.DeepEqual(ia, ib) {
				t.Fatalf("trial %d: p%d retained diverges: lgc %v vs naive %v", trial, i, ia, ib)
			}
			sa, sb := a.Store(i).Stats(), b.Store(i).Stats()
			if sa.Collected != sb.Collected || sa.Peak != sb.Peak {
				t.Fatalf("trial %d: p%d stats diverge: %+v vs %+v", trial, i, sa, sb)
			}
		}
	}
}

// TestNaiveEquivalenceThroughRecovery extends the equivalence through crash
// and recovery sessions in both LI and DV variants. The random trials draw
// n = 2–4; the wide ones put n on either side of the 64-bit words of
// RDT-LGC's held set (Algorithm 3's ReleaseStale walks only the set bits)
// and fail the last process, whose entry sits in the top word.
func TestNaiveEquivalenceThroughRecovery(t *testing.T) {
	type trial struct {
		n, ops   int
		seed     int64
		faulty   int
		globalLI bool
	}
	var trials []trial
	rng := rand.New(rand.NewSource(409))
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(3)
		seed := rng.Int63()
		trials = append(trials, trial{n: n, ops: 50, seed: seed, faulty: rng.Intn(n), globalLI: rng.Intn(2) == 0})
	}
	for _, n := range []int{63, 64, 65, 130} {
		for _, globalLI := range []bool{false, true} {
			trials = append(trials, trial{n: n, ops: 20 * n, seed: int64(n), faulty: n - 1, globalLI: globalLI})
		}
	}
	for i, tr := range trials {
		n := tr.n
		run := func(local func(int, int, storage.Store) gc.Local) *sim.Runner {
			r, err := sim.NewRunner(sim.Config{N: n, Protocol: fdas, LocalGC: local})
			if err != nil {
				t.Fatal(err)
			}
			s := ccp.RandomScript(rand.New(rand.NewSource(tr.seed)), ccp.RandomOptions{N: n, Ops: tr.ops})
			if err := r.Run(s); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Recover([]int{tr.faulty}, tr.globalLI); err != nil {
				t.Fatal(err)
			}
			s2 := ccp.RandomScript(rand.New(rand.NewSource(tr.seed+1)), ccp.RandomOptions{N: n, Ops: tr.ops * 3 / 5})
			if err := r.Run(s2); err != nil {
				t.Fatal(err)
			}
			return r
		}
		a, b := run(lgcFactory), run(naiveFactory)
		for p := 0; p < n; p++ {
			ia, ib := a.Store(p).Indices(), b.Store(p).Indices()
			if !reflect.DeepEqual(ia, ib) {
				t.Fatalf("trial %d (n=%d, LI=%v): p%d diverges after recovery: lgc %v vs naive %v",
					i, n, tr.globalLI, p, ia, ib)
			}
			if err := a.LocalGC(p).(*core.LGC).CheckRefCounts(); err != nil {
				t.Fatalf("trial %d (n=%d, LI=%v): %v", i, n, tr.globalLI, err)
			}
		}
	}
}

// BenchmarkAblationRefcount vs BenchmarkAblationNaive: what Algorithm 1's
// reference-counted CCB/UC structure buys over the rescan oracle, which
// recomputes the retained set from the stored vectors on every event. Both
// collect the same checkpoints (TestNaiveEquivalentToRDTLGC); only the
// bookkeeping cost differs.
func BenchmarkAblationRefcount(b *testing.B) { benchAblation(b, lgcFactory) }
func BenchmarkAblationNaive(b *testing.B)    { benchAblation(b, naiveFactory) }

func benchAblation(b *testing.B, local func(int, int, storage.Store) gc.Local) {
	const n = 16
	script := workload.Generate(workload.Uniform, workload.Options{N: n, Ops: 3000, Seed: 23})
	cfg := sim.Config{N: n, Protocol: fdas, LocalGC: local}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(script); err != nil {
			b.Fatal(err)
		}
	}
}
