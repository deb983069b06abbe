package rdt_test

import (
	"reflect"
	"testing"

	rdt "repro"
)

// TestChaosFacadeCrashRestart drives the crash/restart lifecycle through
// the public facade: live cluster on log-backed storage, crash, survivor
// traffic into the hole, restart on a consistent recovery line.
func TestChaosFacadeCrashRestart(t *testing.T) {
	c, err := rdt.NewCluster(3, rdt.Network{Seed: 5},
		rdt.WithProtocol(rdt.FDAS), rdt.WithCollector(rdt.RDTLGC),
		rdt.WithStorage(rdt.BackendLog, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for op := 0; op < 30; op++ {
		p := op % 3
		if op%5 == 0 {
			if err := c.Node(p).Checkpoint(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := c.Node(p).Send((p + 1) % 3); err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce()

	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Down(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Down() = %v, want [1]", got)
	}
	// Survivors keep talking, including into the hole.
	if err := c.Node(0).Send(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(2).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()

	rep, err := c.Restart(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Restarted, []int{1}) {
		t.Fatalf("Restarted = %v, want [1]", rep.Restarted)
	}
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("post-restart pattern not RDT: %v", v)
	}
	// The cluster accepts new work from the restarted process.
	if err := c.Node(1).Send(0); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
}

// TestChaosFacadeRun executes a seeded fault plan end to end through
// rdt.RunChaos, twice, and checks the deterministic engine yields the same
// measurements both times.
func TestChaosFacadeRun(t *testing.T) {
	plan, err := rdt.NewChaosPlan(rdt.ChaosPlanOptions{
		N: 4, Pattern: rdt.ChaosRolling, Cycles: 3, Ops: 50, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rdt.RunChaos(plan, rdt.Network{Loss: 0.05, Seed: 3},
		rdt.WithProtocol(rdt.CBR), rdt.WithCollector(rdt.RDTLGC),
		rdt.WithStorage(rdt.BackendLog, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Recoveries != plan.Recoveries() {
		t.Fatalf("ran %d recoveries, plan schedules %d", a.Recoveries, plan.Recoveries())
	}
	b, err := rdt.RunChaos(plan, rdt.Network{Loss: 0.05, Seed: 3},
		rdt.WithProtocol(rdt.CBR), rdt.WithCollector(rdt.RDTLGC),
		rdt.WithStorage(rdt.BackendLog, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	a.Latency, b.Latency = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same plan diverged:\n%+v\n%+v", a, b)
	}

	// A TCP run of the same plan exercises the wire path; deterministic
	// mode drains between operations, so the measurements still match the
	// in-process run exactly (wall-clock aside).
	tcp, err := rdt.RunChaos(plan, rdt.Network{Loss: 0.05, Seed: 3, TCP: true},
		rdt.WithProtocol(rdt.CBR), rdt.WithCollector(rdt.RDTLGC),
		rdt.WithStorage(rdt.BackendLog, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	tcp.Latency = 0
	if !reflect.DeepEqual(a, tcp) {
		t.Fatalf("TCP run of the same plan diverged:\n%+v\n%+v", a, tcp)
	}
	if _, err := rdt.RunChaos(plan, rdt.Network{}, rdt.WithCollector(rdt.SyncOptimal)); err == nil {
		t.Error("global-collector chaos run should be rejected")
	}
}
