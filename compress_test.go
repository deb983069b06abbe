package rdt_test

import (
	"reflect"
	"testing"
	"time"

	rdt "repro"
)

// TestCompressionLiveCluster checks WithCompression means the same thing in
// the live engine as in the simulator: a compressed live cluster works end
// to end and keeps its vectors consistent with the replayed history.
func TestCompressionLiveCluster(t *testing.T) {
	c, err := rdt.NewCluster(3, rdt.Network{MaxDelay: 100 * time.Microsecond, Seed: 11},
		rdt.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for op := 0; op < 60; op++ {
		p := op % 3
		if op%7 == 0 {
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
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("compressed live pattern not RDT: %v", v)
	}
}

// TestCompressionConfigErrors checks every assembly the kernel cannot honor
// is refused loudly at configuration time instead of corrupting causal
// knowledge at delivery time.
func TestCompressionConfigErrors(t *testing.T) {
	// A lossy live network under compression: deltas cannot survive loss.
	if _, err := rdt.NewCluster(3, rdt.Network{Loss: 0.05}, rdt.WithCompression()); err == nil {
		t.Error("compressed live cluster with loss should be rejected")
	}
	// A lossy chaos baseline under compression.
	plan, err := rdt.NewChaosPlan(rdt.ChaosPlanOptions{
		N: 3, Pattern: rdt.ChaosSingle, Cycles: 2, Ops: 30, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rdt.RunChaos(plan, rdt.Network{Loss: 0.02}, rdt.WithCompression()); err == nil {
		t.Error("compressed chaos run with a lossy baseline should be rejected")
	}
}

// TestCompressionChaos is the compression × live-concurrency × chaos
// scenario family: a seeded crash/restart plan executed on a compressed
// live cluster, every recovery session verified
// against the ground-truth oracles, and the whole run deterministic.
func TestCompressionChaos(t *testing.T) {
	plan, err := rdt.NewChaosPlan(rdt.ChaosPlanOptions{
		N: 4, Pattern: rdt.ChaosRolling, Cycles: 3, Ops: 50, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() rdt.ChaosResult {
		r, err := rdt.RunChaos(plan, rdt.Network{Seed: 7},
			rdt.WithCompression(),
			rdt.WithProtocol(rdt.FDAS), rdt.WithCollector(rdt.RDTLGC))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Recoveries != plan.Recoveries() {
		t.Fatalf("ran %d recoveries, plan schedules %d", a.Recoveries, plan.Recoveries())
	}
	a.Latency, b.Latency = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two compressed chaos runs of the same plan diverged:\n%+v\n%+v", a, b)
	}
}

// TestCompressionMeansTheSameEverywhere checks the facade accepts
// WithCompression for every engine assembly that can honor it: simulated
// systems (existing behaviour) and live clusters (previously silently
// ignored), with identical option spelling.
func TestCompressionMeansTheSameEverywhere(t *testing.T) {
	sys, err := rdt.New(3, rdt.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	// Client-server traffic delivers immediately, hence FIFO per pair —
	// the channel model compression requires of scripts.
	script := rdt.Workload(rdt.ClientServer, rdt.WorkloadOptions{N: 3, Ops: 200, Seed: 2})
	if err := sys.Run(script); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().PiggybackEntries == 0 {
		t.Error("compressed simulated system piggybacked nothing")
	}
	c, err := rdt.NewCluster(3, rdt.Network{Seed: 2}, rdt.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Node(0).Send(1); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
}
