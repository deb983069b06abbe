package core_test

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

// lgcConfig builds a runner config with FDAS + RDT-LGC.
func lgcConfig(n int) sim.Config {
	return sim.Config{
		N:        n,
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
	}
}

// runRandom executes a random workload on a fresh runner.
func runRandom(t *testing.T, cfg sim.Config, rng *rand.Rand, ops int) *sim.Runner {
	t.Helper()
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ccp.RandomScript(rng, ccp.RandomOptions{N: cfg.N, Ops: ops, PLoss: 0.05})
	if err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkPostRecovery asserts the full correctness suite at a recovery
// boundary and beyond: invariant, safety, optimality, bound.
func checkPostRecovery(t *testing.T, r *sim.Runner, n int) {
	t.Helper()
	oracle := r.Oracle()
	if err := checkTheorem3Invariant(r, oracle); err != nil {
		t.Error(err)
	}
	if err := checkTheorem4Safety(r, oracle); err != nil {
		t.Error(err)
	}
	if err := checkBound(r, n); err != nil {
		t.Error(err)
	}
}

// TestRecoverySessions crashes random faulty sets between random workload
// bursts, with and without global recovery information, and checks the
// correctness properties at every boundary. This exercises Algorithm 3 in
// both its LI and DV variants plus ReleaseStale.
func TestRecoverySessions(t *testing.T) {
	for _, globalLI := range []bool{true, false} {
		name := "DV-variant"
		if globalLI {
			name = "LI-variant"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(211))
			for trial := 0; trial < 20; trial++ {
				n := 2 + rng.Intn(4)
				r, err := sim.NewRunner(lgcConfig(n))
				if err != nil {
					t.Fatal(err)
				}
				for burst := 0; burst < 3; burst++ {
					s := ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 25 + rng.Intn(35)})
					if err := r.Run(s); err != nil {
						t.Fatalf("trial %d burst %d: %v", trial, burst, err)
					}
					faulty := []int{rng.Intn(n)}
					if rng.Intn(2) == 0 && n > 1 {
						f2 := rng.Intn(n)
						if f2 != faulty[0] {
							faulty = append(faulty, f2)
						}
					}
					rep, err := r.Recover(faulty, globalLI)
					if err != nil {
						t.Fatalf("trial %d burst %d: recover: %v", trial, burst, err)
					}
					oracle := r.Oracle()
					// The post-recovery pattern is still RDT.
					if v, bad := oracle.FirstRDTViolation(); bad {
						t.Fatalf("trial %d: post-recovery pattern not RDT: %v", trial, v)
					}
					// Faulty processes never resume from a volatile state.
					for _, f := range rep.Faulty {
						if rep.Line[f] > oracle.LastStable(f) {
							t.Fatalf("trial %d: faulty p%d assigned volatile component", trial, f)
						}
					}
					checkPostRecovery(t, r, n)
				}
			}
		})
	}
}

// TestRecoveryLineMatchesOracle checks the recovery manager's DV-based line
// computation agrees with the ground-truth Lemma 1 oracle.
func TestRecoveryLineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		r := runRandom(t, lgcConfig(n), rng, 40)
		var faulty []int
		for f := 0; f < n; f++ {
			if rng.Intn(2) == 0 {
				faulty = append(faulty, f)
			}
		}
		if len(faulty) == 0 {
			faulty = []int{0}
		}
		want := r.Oracle().RecoveryLine(faulty)
		rep, err := r.Recover(faulty, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if rep.Line[i] != want[i] {
				t.Errorf("trial %d: line[%d] = %d, oracle says %d", trial, i, rep.Line[i], want[i])
			}
		}
	}
}

// TestLIVariantCollectsAtLeastDVVariant runs the same execution and failure
// twice and checks the global-information rollback never retains more than
// the causal-knowledge rollback (Theorem 1 refines Theorem 2).
func TestLIVariantCollectsAtLeastDVVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		seed := rng.Int63()
		faultyPick := rng.Intn(n)

		counts := make(map[bool][]int)
		for _, globalLI := range []bool{true, false} {
			r, err := sim.NewRunner(lgcConfig(n))
			if err != nil {
				t.Fatal(err)
			}
			s := ccp.RandomScript(rand.New(rand.NewSource(seed)), ccp.RandomOptions{N: n, Ops: 50})
			if err := r.Run(s); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Recover([]int{faultyPick}, globalLI); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				counts[globalLI] = append(counts[globalLI], len(r.Store(i).Indices()))
			}
		}
		for i := 0; i < n; i++ {
			if counts[true][i] > counts[false][i] {
				t.Errorf("trial %d: p%d retains %d with LI but %d without — LI must collect at least as much",
					trial, i, counts[true][i], counts[false][i])
			}
		}
	}
}

// TestRollbackRecreatesDV checks Algorithm 3 lines 5-6: the process resumes
// with DV(s^RI) plus an incremented self entry.
func TestRollbackRecreatesDV(t *testing.T) {
	r := newLGCRunner(t, 3)
	f4 := ccp.NewFig4()
	if err := r.Run(f4.Script); err != nil {
		t.Fatal(err)
	}
	// Crash p3 (index 2). Its last stable checkpoint s_3^3 stored (1,3,3).
	rep, err := r.Recover([]int{2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Line[2] != 3 {
		t.Fatalf("p3 should roll back to s_3^3, got component %d", rep.Line[2])
	}
	if got := r.CurrentDV(2).String(); got != "(1, 3, 4)" {
		t.Errorf("p3 resumed with DV %s, want (1, 3, 4) = stored (1,3,3) with self incremented", got)
	}
}

// loadCounter is a stable store that counts its Loads.
type loadCounter struct {
	storage.Store
	loads int
}

func (c *loadCounter) Load(index int) (storage.Checkpoint, error) {
	c.loads++
	return c.Store.Load(index)
}

// TestRollbackLoadsEachSurvivorOnce pins what a rollback reads from stable
// storage: each surviving checkpoint once, the target included — its vector
// comes from the same pass as the others', not from a second walk of its
// delta chain. Both variants, Rollback and RollbackInPlace.
func TestRollbackLoadsEachSurvivorOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		stores := make([]*loadCounter, n)
		cfg := lgcConfig(n)
		cfg.NewStore = func(self int) (storage.Store, error) {
			stores[self] = &loadCounter{Store: storage.NewMemStore()}
			return stores[self], nil
		}
		r := runRandom(t, cfg, rng, 50)
		victim := rng.Intn(n)
		idxs := stores[victim].Indices()
		at := rng.Intn(len(idxs))
		lgc := r.LocalGC(victim).(*core.LGC)
		rollback, name := lgc.Rollback, "Rollback"
		if trial%2 == 1 {
			rollback, name = lgc.RollbackInPlace, "RollbackInPlace"
		}
		before := stores[victim].loads
		if _, err := rollback(idxs[at], nil); err != nil {
			t.Fatalf("trial %d: %s(%d): %v", trial, name, idxs[at], err)
		}
		if got, kept := stores[victim].loads-before, at+1; got != kept {
			t.Fatalf("trial %d: %s to checkpoint %d of %v made %d loads, want %d: one per survivor",
				trial, name, idxs[at], idxs, got, kept)
		}
	}
}

// TestRollbackErrorOnMissingTarget checks Rollback refuses a target index
// that is not in the store.
func TestRollbackErrorOnMissingTarget(t *testing.T) {
	st := storage.NewMemStore()
	if err := st.Save(storage.Checkpoint{Index: 0, DV: []int{0, 0}}); err != nil {
		t.Fatal(err)
	}
	lgc := core.New(0, 2, st)
	if _, err := lgc.Rollback(5, nil); err == nil {
		t.Fatal("Rollback to a missing checkpoint should fail")
	}
}
