package rdt_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	rdt "repro"
)

// TestObsInstrumentedSoak runs a live TCP cluster with full observability
// attached — metrics registry and flight recorder — through traffic, a
// crash and a restart, then checks the instruments saw the run: every layer
// reported nonzero counts, the flight recording parses as JSONL and renders
// as a space-time diagram.
func TestObsInstrumentedSoak(t *testing.T) {
	const n = 4
	reg := rdt.NewMetricsRegistry()
	rec := rdt.NewFlightRecorder(0)
	c, err := rdt.NewCluster(n, rdt.Network{TCP: true}, rdt.WithObservability(reg, rec))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	traffic := func(skip int) {
		for round := 0; round < 30; round++ {
			for p := 0; p < n; p++ {
				if p == skip {
					continue
				}
				to := (p + 1) % n
				if to == skip {
					to = (to + 1) % n
				}
				if err := c.Node(p).Send(to); err != nil {
					t.Fatalf("p%d send: %v", p, err)
				}
				if round%5 == 0 {
					if err := c.Node(p).Checkpoint(); err != nil {
						t.Fatalf("p%d checkpoint: %v", p, err)
					}
				}
			}
		}
		c.Quiesce()
	}

	traffic(-1)
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	traffic(1) // survivors keep running against the hole
	if _, err := c.Restart(true); err != nil {
		t.Fatal(err)
	}
	traffic(-1)

	snap := reg.Snapshot()
	for _, name := range []string{
		"kernel.deliveries",
		"kernel.checkpoints.basic",
		"kernel.piggyback.entries",
		"runtime.sendpool.worker_spawns",
		"transport.batches",
		"transport.frames_sent",
		"transport.frames_delivered",
		"transport.bytes_out",
		"transport.reads",
		"transport.dials",
		"storage.saves",
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %s is zero after an instrumented soak", name)
		}
	}
	if h, ok := snap.Histogram("storage.save_ns"); !ok || h.Count == 0 {
		t.Errorf("storage.save_ns histogram empty (ok=%v)", ok)
	}

	if rec.Len() == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	kinds := map[string]bool{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind.String()] = true
	}
	for _, want := range []string{"send", "deliver", "checkpoint", "crash", "restart"} {
		if !kinds[want] {
			t.Errorf("flight recording has no %q event; kinds seen: %v", want, kinds)
		}
	}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != rec.Len() {
		t.Fatalf("JSONL has %d lines, recorder holds %d events", len(lines), rec.Len())
	}
	for i, line := range lines {
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("JSONL line %d does not parse: %v\n%s", i, err, line)
		}
	}

	diagram := rdt.RenderFlight(n, rec)
	if strings.Contains(diagram, "invalid script") {
		t.Fatalf("flight recording did not render:\n%s", diagram)
	}
	if !strings.Contains(diagram, "s0>") || !strings.Contains(diagram, ">r0") {
		t.Errorf("diagram missing message endpoints:\n%s", diagram)
	}
}
