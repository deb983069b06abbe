package runtime_test

import (
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// TestUnrecordedMemoryBounded holds an unrecorded cluster to the paper's
// bound on what a process keeps: past warm-up, its live heap does not grow
// with the messages it has carried. An n = 32 ring with 16 messages in
// flight per node carries 1 M messages, then 4 M; the live heap after the
// 4 M is within 2 MB of the heap after the first 1 M, on both wires. A
// recorded cluster's recorder keeps 56 bytes per event, two events per
// message, for good: about 120 MB per million messages. -short compares
// 250 k with 1 M on the in-process wire alone.
func TestUnrecordedMemoryBounded(t *testing.T) {
	const n, window, slack = 32, 16, 2 << 20
	early, late := 1_000_000, 4_000_000
	wires := []bool{false, true}
	if testing.Short() {
		early, late = 250_000, 1_000_000
		wires = wires[:1]
	}
	for _, tcp := range wires {
		t.Run(wireName(tcp), func(t *testing.T) {
			_, ring := creditRing(t, n, window, tcp, obs.Options{})
			ring(early)
			before := liveHeap()
			ring(late - early)
			after := liveHeap()
			t.Logf("live heap %.1f MB after %d messages, %.1f MB after %d", mb(before), early, mb(after), late)
			if after > before+slack {
				t.Fatalf("live heap grew %.1f MB between %d and %d messages, more than %.0f MB",
					mb(after-before), early, late, mb(slack))
			}
		})
	}
}

// liveHeap returns the bytes of heap still reachable after a full
// collection.
func liveHeap() uint64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// TestHistoryPanicsUnrecorded pins the contract History and Oracle document:
// a cluster built without Config.Record has no history, and asking for one
// panics with the documented message rather than returning an empty script
// that every oracle would pass.
func TestHistoryPanicsUnrecorded(t *testing.T) {
	c, err := runtime.NewCluster(runtime.Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Node(0).Send(1); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	const want = "runtime: no history recorded; build the cluster with Config.Record"
	for name, read := range map[string]func(){
		"History": func() { c.History() },
		"Oracle":  func() { c.Oracle() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if got, _ := recover().(string); !strings.Contains(got, want) {
					t.Fatalf("%s on an unrecorded cluster: panic %q, want %q", name, got, want)
				}
			}()
			read()
		})
	}
}
