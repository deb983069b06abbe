package chaos

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/storage"
)

// TestObsChaosMetrics is the observability acceptance check: a chaos run
// over the real TCP mesh with a live registry attached must report its
// crash/recovery/transport activity through the registry, and the flight
// recorder must capture the fault events.
func TestObsChaosMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0)
	plan, err := NewPlan(PlanOptions{N: 4, Pattern: Single, Cycles: 3, Ops: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		LocalGC:       func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		GlobalLI:      true,
		PCheckpoint:   0.2,
		Deterministic: true,
		RDT:           true,
		CheckNBound:   true,
		TCP:           true,
		Obs:           obs.Options{Registry: reg, Recorder: rec},
	}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.Recoveries == 0 {
		t.Fatalf("plan scheduled no faults: %+v", res)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(obs.ChaosCrashes); got != int64(res.Crashes) {
		t.Errorf("%s = %d, result says %d", obs.ChaosCrashes, got, res.Crashes)
	}
	if got := snap.Counter(obs.ChaosRecoveries); got != int64(res.Recoveries) {
		t.Errorf("%s = %d, result says %d", obs.ChaosRecoveries, got, res.Recoveries)
	}
	if got := snap.Counter(obs.ChaosOracleOK); got != int64(res.Recoveries) {
		t.Errorf("%s = %d, want %d (every session verified)", obs.ChaosOracleOK, got, res.Recoveries)
	}
	if got := snap.Counter(obs.ChaosOracleViolations); got != 0 {
		t.Errorf("%s = %d on a clean run", obs.ChaosOracleViolations, got)
	}
	if h, ok := snap.Histogram(obs.ChaosRecoveryNs); !ok || h.Count != uint64(res.Recoveries) {
		t.Errorf("%s count = %+v, want %d samples", obs.ChaosRecoveryNs, h, res.Recoveries)
	}
	if got := snap.Gauge(obs.ChaosObsoleteRetained); got != int64(res.RetainedAfterMax) {
		t.Errorf("%s = %d, result says %d", obs.ChaosObsoleteRetained, got, res.RetainedAfterMax)
	}

	// The cluster under test reported through the same registry.
	for _, name := range []string{
		obs.KernelDeliveries,
		obs.KernelCheckpointsBasic,
		obs.TransportFramesSent,
		obs.TransportFramesDeliv,
		obs.StorageSaves,
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %s is zero after an instrumented chaos run", name)
		}
	}

	crashes, restarts := 0, 0
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.EvCrash:
			crashes++
		case obs.EvRestart:
			restarts++
		}
	}
	if crashes != res.Crashes || restarts != res.Crashes {
		t.Errorf("flight recording has %d crash / %d restart events, result says %d crashes",
			crashes, restarts, res.Crashes)
	}
}
