package chaos_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// partitionConfig is the paper stack over the real TCP mesh (the wire the
// partition tests keep exercising; the CLIs run the in-process one) with
// compressed piggybacking on — the configuration where a lost, duplicated,
// or reordered retransmission cannot hide, because the kernel's delta
// decoding depends on exact per-pair FIFO delivery.
func partitionConfig() chaos.Config {
	return chaos.Config{
		Protocol:      func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:       func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		Net:           runtime.NetworkOptions{Seed: 7},
		TCP:           true,
		Compress:      true,
		GlobalLI:      true,
		Deterministic: true,
		RDT:           true,
		CheckNBound:   true,
	}
}

// count returns how many steps of the given kinds the plan schedules.
func count(p chaos.Plan, kinds ...chaos.StepKind) int {
	n := 0
	for _, s := range p.Steps {
		for _, k := range kinds {
			if s.Kind == k {
				n++
			}
		}
	}
	return n
}

func TestPartitionPlanDeterministic(t *testing.T) {
	for _, pat := range chaos.PartitionPatterns() {
		pat := pat
		t.Run(pat.String(), func(t *testing.T) {
			opts := chaos.PlanOptions{N: 6, Pattern: pat, Cycles: 3, Ops: 40, Seed: 42}
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
			if count(a, chaos.StepPartition, chaos.StepBreakLink) == 0 {
				t.Fatalf("%s plan schedules no cut", pat)
			}
			rt, err := chaos.ParsePattern(pat.String())
			if err != nil || rt != pat {
				t.Fatalf("ParsePattern(%q) = %v, %v", pat.String(), rt, err)
			}
		})
	}
	// Seed must shape the cut itself, not just the fault schedule.
	a, err := chaos.NewPlan(chaos.PlanOptions{N: 8, Pattern: chaos.SplitBrain, Cycles: 3, Ops: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.NewPlan(chaos.PlanOptions{N: 8, Pattern: chaos.SplitBrain, Cycles: 3, Ops: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Steps, b.Steps) {
		t.Fatal("different seeds produced identical split-brain plans")
	}
	// Crash patterns stay partition-free.
	for _, pat := range chaos.Patterns() {
		p, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: pat, Cycles: 2, Ops: 20, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if count(p, chaos.StepPartition, chaos.StepHeal, chaos.StepBreakLink, chaos.StepHealLink) != 0 {
			t.Fatalf("crash pattern %s schedules partition steps", pat)
		}
	}
}

// TestPartitionPlanShapes pins the fault budget of each partition pattern:
// how many cuts and heals a plan schedules per cycle.
func TestPartitionPlanShapes(t *testing.T) {
	const cycles = 3
	cases := []struct {
		pat                     chaos.Pattern
		partitions, heals, flap int
	}{
		{chaos.SplitBrain, cycles, cycles, 0},
		{chaos.Flapping, 0, cycles, 4 * cycles},
		{chaos.Isolation, cycles, cycles, 0},
		{chaos.PartitionRecovery, cycles, cycles, 0},
	}
	for _, tc := range cases {
		plan, err := chaos.NewPlan(chaos.PlanOptions{N: 5, Pattern: tc.pat, Cycles: cycles, Ops: 30, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if got := count(plan, chaos.StepPartition); got != tc.partitions {
			t.Errorf("%s: %d StepPartition, want %d", tc.pat, got, tc.partitions)
		}
		if got := count(plan, chaos.StepHeal); got != tc.heals {
			t.Errorf("%s: %d StepHeal, want %d", tc.pat, got, tc.heals)
		}
		if got := count(plan, chaos.StepBreakLink); got != tc.flap {
			t.Errorf("%s: %d StepBreakLink, want %d", tc.pat, got, tc.flap)
		}
		if count(plan, chaos.StepBreakLink) != count(plan, chaos.StepHealLink) {
			t.Errorf("%s: flap breaks and heals unbalanced", tc.pat)
		}
	}
	// Partition-recovery restarts a crashed process while the split is
	// still open: the Heal must come after the Restart.
	pr, err := chaos.NewPlan(chaos.PlanOptions{N: 5, Pattern: chaos.PartitionRecovery, Cycles: 1, Ops: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	restart, heal := -1, -1
	for i, s := range pr.Steps {
		switch s.Kind {
		case chaos.StepRestart:
			if restart == -1 {
				restart = i
			}
		case chaos.StepHeal:
			heal = i
		}
	}
	if restart == -1 || heal == -1 || heal < restart {
		t.Fatalf("partition-recovery must restart inside the open split (restart@%d, heal@%d)", restart, heal)
	}
}

// TestPartitionEngineSplitBrain is the acceptance run: a seeded split-brain
// plan over the real TCP mesh, every post-heal and post-recovery state
// checked against the full oracle battery (Lemma-1 recovery lines, RDT
// trackability, Theorem-4 obsolete-only collection, the RDT-LGC n-bound).
// chaos.Run returns an error on any oracle violation, so a nil error IS
// the oracle pass.
func TestPartitionEngineSplitBrain(t *testing.T) {
	plan, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: chaos.SplitBrain, Cycles: 3, Ops: 60, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaos.Run(partitionConfig(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 3 || res.Heals != 3 {
		t.Fatalf("res = %+v, want 3 partitions and 3 heals", res)
	}
	if res.Recoveries != plan.Recoveries() {
		t.Fatalf("ran %d recoveries, plan schedules %d", res.Recoveries, plan.Recoveries())
	}
	if res.HealLatency <= 0 || res.MeanHealLatency() <= 0 {
		t.Fatalf("heal latency not measured: %+v", res)
	}
}

// TestPartitionEngineAllPatterns drives every partition pattern through
// the armed oracle suite, including partition-recovery, whose recovery
// session runs while the split is still open.
func TestPartitionEngineAllPatterns(t *testing.T) {
	for _, pat := range chaos.PartitionPatterns() {
		pat := pat
		t.Run(pat.String(), func(t *testing.T) {
			plan, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: pat, Cycles: 2, Ops: 40, Seed: 31})
			if err != nil {
				t.Fatal(err)
			}
			res, err := chaos.Run(partitionConfig(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if res.Partitions == 0 || res.Heals == 0 {
				t.Fatalf("%s run injected %d partitions, %d heals", pat, res.Partitions, res.Heals)
			}
		})
	}
}

// TestPartitionEngineWiresAgree is the differential that shows the seam
// under the link layer is transparent: one deterministic plan per partition
// pattern, run once on the in-process wire and once over the TCP mesh,
// yields the same measurements — every count, every rollback depth — once
// the wall-clock fields are set aside. The cut, the parked backlog and the
// replay are the link layer's; the wire only carries.
func TestPartitionEngineWiresAgree(t *testing.T) {
	for _, pat := range chaos.PartitionPatterns() {
		pat := pat
		t.Run(pat.String(), func(t *testing.T) {
			plan, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: pat, Cycles: 2, Ops: 40, Seed: 57})
			if err != nil {
				t.Fatal(err)
			}
			var res [2]chaos.Result
			for i, tcp := range []bool{false, true} {
				cfg := partitionConfig()
				cfg.TCP = tcp
				if res[i], err = chaos.Run(cfg, plan); err != nil {
					t.Fatalf("tcp=%v: %v", tcp, err)
				}
				res[i].Latency, res[i].HealLatency = 0, 0
			}
			if res[0].Partitions == 0 || res[0].Heals == 0 {
				t.Fatalf("%s run injected %d partitions, %d heals", pat, res[0].Partitions, res[0].Heals)
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("the two wires diverged:\nin-process %+v\ntcp        %+v", res[0], res[1])
			}
		})
	}
}

// TestPartitionEngineDeterministic pins repeatability over the real mesh:
// the same (plan, config) yields identical measurements run after run —
// partition steps and retransmission do not perturb the linearized
// history in deterministic mode.
func TestPartitionEngineDeterministic(t *testing.T) {
	plan, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: chaos.Isolation, Cycles: 2, Ops: 50, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	a, err := chaos.Run(partitionConfig(), plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.Run(partitionConfig(), plan)
	if err != nil {
		t.Fatal(err)
	}
	a.Latency, b.Latency = 0, 0
	a.HealLatency, b.HealLatency = 0, 0 // wall clock: the legitimate noise
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two deterministic partition runs diverged:\n%+v\n%+v", a, b)
	}
}
