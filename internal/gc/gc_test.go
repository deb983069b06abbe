package gc_test

import (
	"math/rand"
	"testing"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/storage"
)

func fdas(int) protocol.Protocol { return protocol.NewFDAS() }

func lgcFactory(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) }

// TestSynchronousMatchesTheorem1 checks the global collector retains
// exactly the non-obsolete set of the oracle after every event — it is the
// optimum any garbage collection can achieve.
func TestSynchronousMatchesTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		var r *sim.Runner
		cfg := sim.Config{
			N:        n,
			Protocol: fdas,
			GlobalGC: gc.NewSynchronous(),
			AfterEvent: func() error {
				oracle := r.Oracle()
				for i := 0; i < n; i++ {
					stored := map[int]bool{}
					for _, idx := range r.Store(i).Indices() {
						stored[idx] = true
					}
					for g := 0; g <= oracle.LastStable(i); g++ {
						obsolete := oracle.Obsolete(i, g)
						if stored[g] == obsolete {
							t.Fatalf("sync GC: s_%d^%d stored=%v obsolete=%v (must retain exactly non-obsolete)",
								i, g, stored[g], obsolete)
						}
					}
				}
				return nil
			},
		}
		var err error
		r, err = sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 40 + rng.Intn(40)})
		if err := r.Run(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSynchronousGlobalBound checks the n(n+1)/2 global bound of Wang et
// al. that the paper cites for full-knowledge collection.
func TestSynchronousGlobalBound(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		var r *sim.Runner
		cfg := sim.Config{
			N:        n,
			Protocol: fdas,
			GlobalGC: gc.NewSynchronous(),
			AfterEvent: func() error {
				total := 0
				for i := 0; i < n; i++ {
					total += len(r.Store(i).Indices())
				}
				if max := n * (n + 1) / 2; total > max {
					t.Fatalf("sync GC stores %d checkpoints globally, bound is n(n+1)/2 = %d", total, max)
				}
				return nil
			},
		}
		var err error
		r, err = sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 60})
		if err := r.Run(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryLineGCSafety checks the all-faulty-line collector only
// removes obsolete checkpoints but generally retains more than Theorem 1.
func TestRecoveryLineGCSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	retainedMoreSomewhere := false
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		var r *sim.Runner
		cfg := sim.Config{
			N:           n,
			Protocol:    fdas,
			GlobalGC:    gc.NewRecoveryLine(),
			GlobalEvery: 5,
			AfterEvent: func() error {
				oracle := r.Oracle()
				for i := 0; i < n; i++ {
					stored := map[int]bool{}
					for _, idx := range r.Store(i).Indices() {
						stored[idx] = true
					}
					for g := 0; g <= oracle.LastStable(i); g++ {
						if !stored[g] && !oracle.Obsolete(i, g) {
							t.Fatalf("recovery-line GC collected non-obsolete s_%d^%d", i, g)
						}
						if stored[g] && oracle.Obsolete(i, g) {
							retainedMoreSomewhere = true
						}
					}
				}
				return nil
			},
		}
		var err error
		r, err = sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 50})
		if err := r.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	if !retainedMoreSomewhere {
		t.Error("recovery-line GC never retained an obsolete checkpoint; comparison tests would be vacuous")
	}
}

// TestCollectorOrdering checks the fundamental comparison of the paper's
// evaluation story on identical executions:
//
//	retained(Synchronous) ≤ retained(RDT-LGC) ≤ retained(NoGC)
//
// per process at end of run, with Synchronous = the Theorem 1 optimum.
func TestCollectorOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		seed := rng.Int63()
		run := func(local func(int, int, storage.Store) gc.Local, global gc.Global) *sim.Runner {
			cfg := sim.Config{N: n, Protocol: fdas, GlobalGC: global}
			if local != nil {
				cfg.LocalGC = local
			}
			r, err := sim.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := ccp.RandomScript(rand.New(rand.NewSource(seed)), ccp.RandomOptions{N: n, Ops: 60})
			if err := r.Run(s); err != nil {
				t.Fatal(err)
			}
			return r
		}
		sync := run(nil, gc.NewSynchronous())
		lgc := run(lgcFactory, nil)
		nogc := run(nil, nil)
		for i := 0; i < n; i++ {
			a, b, c := len(sync.Store(i).Indices()), len(lgc.Store(i).Indices()), len(nogc.Store(i).Indices())
			if a > b || b > c {
				t.Errorf("trial %d p%d: retained sync=%d lgc=%d nogc=%d violates ordering", trial, i, a, b, c)
			}
		}
	}
}

// TestNoGCRollback checks the keep-everything baseline still implements
// rollback correctly (discards rolled-back checkpoints, recreates DV).
func TestNoGCRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	r, err := sim.NewRunner(sim.Config{N: 3, Protocol: fdas})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(ccp.RandomScript(rng, ccp.RandomOptions{N: 3, Ops: 50})); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Recover([]int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	oracle := r.Oracle()
	for _, i := range rep.RolledBack {
		indices := r.Store(i).Indices()
		for _, idx := range indices {
			if idx > rep.Line[i] {
				t.Errorf("p%d still stores rolled-back checkpoint %d (line %d)", i, idx, rep.Line[i])
			}
		}
		if got := len(indices); got != rep.Line[i]+1 {
			t.Errorf("p%d stores %d checkpoints, want all %d up to the line", i, got, rep.Line[i]+1)
		}
	}
	if v, bad := oracle.FirstRDTViolation(); bad {
		t.Errorf("post-recovery pattern not RDT: %v", v)
	}
}

// TestAllFaultyLineAgainstOracle cross-checks the control-message-style
// all-faulty-line computation with the ground-truth Lemma 1 line.
func TestAllFaultyLineAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		r, err := sim.NewRunner(sim.Config{N: n, Protocol: fdas})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 50})); err != nil {
			t.Fatal(err)
		}
		got, err := gc.AllFaultyLine(r.View())
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		want := r.Oracle().RecoveryLine(all)
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Errorf("trial %d: all-faulty line[%d] = %d, oracle %d", trial, i, got[i], want[i])
			}
		}
	}
}

// lastStableCounter counts the last_s reads a recovery-line computation
// makes of the global view.
type lastStableCounter struct {
	gc.View
	reads int
}

func (v *lastStableCounter) LastStable(i int) int {
	v.reads++
	return v.View.LastStable(i)
}

// TestComputeLineReadsEachFaultyOnce pins what the recovery line reads of
// last_s: each faulty process's once — Equation 2 compares every candidate
// vector on the |F| faulty entries, with values read up front, not by a fresh
// read per candidate — plus one read per volatile component, which is named
// last_s(i)+1. Random faulty sets, repeats included, on seeded FDAS runs;
// every line is also held to the oracle's.
func TestComputeLineReadsEachFaultyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		r, err := sim.NewRunner(sim.Config{N: n, Protocol: fdas})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 60})); err != nil {
			t.Fatal(err)
		}
		var faulty []int
		distinct := make(map[int]bool)
		for k := 1 + rng.Intn(n); k > 0; k-- {
			f := rng.Intn(n)
			faulty = append(faulty, f)
			distinct[f] = true
		}
		v := &lastStableCounter{View: r.View()}
		line, err := gc.ComputeLine(v, faulty)
		if err != nil {
			t.Fatal(err)
		}
		want := r.Oracle().RecoveryLine(faulty)
		volatile := 0
		for i := range line {
			if line[i] != want[i] {
				t.Fatalf("trial %d: F=%v line %v, oracle %v", trial, faulty, line, want)
			}
			if line[i] == r.LastStable(i)+1 {
				volatile++
			}
		}
		if wantReads := len(distinct) + volatile; v.reads != wantReads {
			t.Fatalf("trial %d: n=%d F=%v: %d last_s reads, want %d (one per faulty process, one per volatile component)",
				trial, n, faulty, v.reads, wantReads)
		}
	}
}
