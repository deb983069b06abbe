package chaos_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
)

// lgcConfig is the canonical paper stack: FDAS + RDT-LGC, every oracle
// check armed.
func lgcConfig(det bool) chaos.Config {
	return chaos.Config{
		Protocol:      func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:       func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		Net:           runtime.NetworkOptions{Loss: 0.05, Seed: 7},
		GlobalLI:      true,
		Deterministic: det,
		RDT:           true,
		CheckNBound:   true,
	}
}

func TestChaosPlanDeterministic(t *testing.T) {
	opts := chaos.PlanOptions{N: 6, Pattern: chaos.Correlated, Cycles: 8, Ops: 50, Seed: 42, PBurst: 0.5}
	a, err := chaos.NewPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.NewPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same options produced different plans")
	}
	opts.Seed = 43
	c, err := chaos.NewPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Steps, c.Steps) {
		t.Fatal("different seeds produced identical steps")
	}
}

func TestChaosPlanShapes(t *testing.T) {
	single, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: chaos.Single, Cycles: 5, Ops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if single.Crashes() != 5 || single.Recoveries() != 5 {
		t.Errorf("single: %d crashes, %d recoveries; want 5, 5", single.Crashes(), single.Recoveries())
	}

	repeated, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: chaos.Repeated, Cycles: 2, Ops: 20, Seed: 1, RepeatedCrashes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if repeated.Crashes() != 6 || repeated.Recoveries() != 6 {
		t.Errorf("repeated: %d crashes, %d recoveries; want 6, 6", repeated.Crashes(), repeated.Recoveries())
	}

	rolling, err := chaos.NewPlan(chaos.PlanOptions{N: 3, Pattern: chaos.Rolling, Cycles: 6, Ops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, s := range rolling.Steps {
		if s.Kind != chaos.StepCrash {
			continue
		}
		if len(s.Procs) != 1 || s.Procs[0] != want%3 {
			t.Errorf("rolling crash %d hits %v, want p%d", want, s.Procs, want%3)
		}
		want++
	}

	correlated, err := chaos.NewPlan(chaos.PlanOptions{N: 8, Pattern: chaos.Correlated, Cycles: 10, Ops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range correlated.Steps {
		if s.Kind != chaos.StepCrash {
			continue
		}
		if len(s.Procs) < 2 || len(s.Procs) > 7 {
			t.Errorf("correlated crash set %v outside [2, n-1]", s.Procs)
		}
		seen := map[int]bool{}
		for k, p := range s.Procs {
			if seen[p] || (k > 0 && s.Procs[k-1] > p) {
				t.Errorf("correlated crash set %v not sorted-distinct", s.Procs)
			}
			seen[p] = true
		}
	}
}

// TestChaosEngineDeterministicRepeatable pins the determinism contract the
// survivability tables rely on: the same (plan, config) yields identical
// measurements, run after run.
func TestChaosEngineDeterministicRepeatable(t *testing.T) {
	plan, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: chaos.Single, Cycles: 4, Ops: 80, Seed: 11, PBurst: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := chaos.Run(lgcConfig(true), plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.Run(lgcConfig(true), plan)
	if err != nil {
		t.Fatal(err)
	}
	a.Latency, b.Latency = 0, 0 // wall clock is the one legitimate difference
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two deterministic runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Recoveries != plan.Recoveries() {
		t.Fatalf("ran %d recoveries, plan schedules %d", a.Recoveries, plan.Recoveries())
	}
}

// TestChaosEngineAllPatterns runs every fault pattern through the armed
// oracle suite on the deterministic engine.
func TestChaosEngineAllPatterns(t *testing.T) {
	for _, pat := range chaos.Patterns() {
		pat := pat
		t.Run(pat.String(), func(t *testing.T) {
			plan, err := chaos.NewPlan(chaos.PlanOptions{N: 5, Pattern: pat, Cycles: 3, Ops: 60, Seed: 23, PBurst: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := chaos.Run(lgcConfig(true), plan)
			if err != nil {
				t.Fatal(err)
			}
			if res.Recoveries != plan.Recoveries() || res.Crashes != plan.Crashes() {
				t.Fatalf("res %+v does not match plan (%d crashes, %d recoveries)",
					res, plan.Crashes(), plan.Recoveries())
			}
		})
	}
}

// TestChaosEngineNoGC exercises the keep-everything baseline: rollback
// depth and obsolescence checks still hold without a collector.
func TestChaosEngineNoGC(t *testing.T) {
	cfg := lgcConfig(true)
	cfg.LocalGC = nil
	cfg.CheckNBound = false
	plan, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: chaos.Rolling, Cycles: 4, Ops: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.Run(cfg, plan); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSoak is the survivability acceptance soak: both RDT protocol
// extremes (FDAS, the paper's Algorithm 4 merge; CBR, the strictest of the
// hierarchy) under RDT-LGC on log-backed stable storage, concurrent drive
// phases, and more than fifty crash/restart cycles each. Every recovery is
// verified against the full oracle suite inside the engine.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	protocols := map[string]func() protocol.Protocol{
		"FDAS": func() protocol.Protocol { return protocol.NewFDAS() },
		"CBR":  func() protocol.Protocol { return protocol.NewCBR() },
	}
	phases := []chaos.PlanOptions{
		{N: 4, Pattern: chaos.Single, Cycles: 20, Ops: 40, Seed: 101, PBurst: 0.3},
		{N: 4, Pattern: chaos.Correlated, Cycles: 10, Ops: 40, Seed: 102},
		{N: 4, Pattern: chaos.Rolling, Cycles: 10, Ops: 40, Seed: 103, PBurst: 0.3},
		{N: 4, Pattern: chaos.Repeated, Cycles: 4, Ops: 40, Seed: 104},
	}
	for name, mk := range protocols {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			recoveries := 0
			for pi, opts := range phases {
				plan, err := chaos.NewPlan(opts)
				if err != nil {
					t.Fatal(err)
				}
				cfg := lgcConfig(false)
				cfg.Protocol = func(int) protocol.Protocol { return mk() }
				cfg.Net.Seed = int64(1000 + pi)
				cfg.NewStore = func(self int) (storage.Store, error) {
					// The soak is about recovery, not durability: no device flush.
					return logstore.Open(filepath.Join(dir, fmt.Sprintf("phase%d-p%d", pi, self)),
						logstore.Options{Sync: func(*os.File) error { return nil }})
				}
				res, err := chaos.Run(cfg, plan)
				if err != nil {
					t.Fatalf("phase %d (%s): %v", pi, opts.Pattern, err)
				}
				recoveries += res.Recoveries
			}
			if recoveries < 50 {
				t.Fatalf("soak ran only %d crash/restart cycles, want >= 50", recoveries)
			}
		})
	}
}
