package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ccp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fifoScript generates a workload whose deliveries are immediate, hence
// trivially FIFO per pair — the channel model the Singhal–Kshemkalyani
// technique requires.
func fifoScript(kind workload.Kind, n, ops int, seed int64) ccp.Script {
	return workload.Generate(kind, workload.Options{N: n, Ops: ops, Seed: seed})
}

// TestCompressionEquivalence runs identical FIFO workloads with and without
// incremental piggybacking and checks the middleware is bit-for-bit
// equivalent: same vectors, same stores, same forced checkpoints — while
// strictly fewer vector entries cross the network. Each input is a sequence
// of scripts run back to back on one runner. Across the inputs the
// compressed runs ship both forms: changed entries (16 bytes each) and, when
// more than half the vector changed, the whole vector (8 bytes an entry).
func TestCompressionEquivalence(t *testing.T) {
	// A message a script leaves in transit is lost with its Run, so it must
	// not move its pair's encoder: the next script's first p0→p1 message is
	// still the pair's next delivered one.
	var strand, resend ccp.Script
	strand.N, resend.N = 2, 2
	strand.Send(0)
	strand.Checkpoint(0)
	strand.Recv(1, strand.Send(0))
	strand.Send(0)
	resend.Recv(1, resend.Send(0))
	resend.Checkpoint(1)
	resend.Recv(0, resend.Send(1))
	type input struct {
		name    string
		scripts []ccp.Script
	}
	inputs := []input{{"in transit across Runs", []ccp.Script{strand, resend}}}

	rng := rand.New(rand.NewSource(901))
	kinds := []workload.Kind{workload.Ring, workload.ClientServer, workload.Bursty, workload.AllToAll}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		kind := kinds[rng.Intn(len(kinds))]
		script := fifoScript(kind, n, 60+rng.Intn(80), rng.Int63())
		inputs = append(inputs, input{fmt.Sprintf("trial %d (%s)", trial, kind), []ccp.Script{script}})
	}

	var entries, bytes int // of the compressed runs
	for _, in := range inputs {
		n := in.scripts[0].N
		run := func(compress bool) *sim.Runner {
			cfg := fdasLGC(n)
			cfg.Compress = compress
			r, err := sim.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, script := range in.scripts {
				if err := r.Run(script); err != nil {
					t.Fatalf("%s: %v", in.name, err)
				}
			}
			return r
		}
		full, comp := run(false), run(true)

		for i := 0; i < n; i++ {
			if !full.CurrentDV(i).Equal(comp.CurrentDV(i)) {
				t.Fatalf("%s: p%d DV full %v != compressed %v",
					in.name, i, full.CurrentDV(i), comp.CurrentDV(i))
			}
			if !reflect.DeepEqual(full.Store(i).Indices(), comp.Store(i).Indices()) {
				t.Fatalf("%s: p%d stores diverge: %v vs %v",
					in.name, i, full.Store(i).Indices(), comp.Store(i).Indices())
			}
		}
		mf, mc := full.Metrics(), comp.Metrics()
		if mf.Forced != mc.Forced || mf.Basic != mc.Basic {
			t.Fatalf("%s: checkpoint counts diverge: %+v vs %+v", in.name, mf, mc)
		}
		if mc.Delivered > 0 && mc.PiggybackEntries > mf.PiggybackEntries {
			t.Fatalf("%s: compression grew the piggyback: %d > %d",
				in.name, mc.PiggybackEntries, mf.PiggybackEntries)
		}
		entries += mc.PiggybackEntries
		bytes += mc.PiggybackBytes
	}
	// Only whole vectors would read 8 bytes an entry, only changed entries 16.
	if bytes <= 8*entries || bytes >= 16*entries {
		t.Fatalf("compressed runs shipped %d entries in %d bytes: want both forms, strictly between 8 and 16 bytes an entry",
			entries, bytes)
	}
}

// TestCompressionSavesEntries quantifies the saving on workloads with
// frequent repeat traffic between the same pairs (client-server,
// broadcast): the incremental piggyback must be well below the full
// n-per-message cost. (On a ring the technique saves nothing — between two
// token visits of the same pair every vector entry has changed — which
// TestCompressionEquivalence still covers for correctness.)
func TestCompressionSavesEntries(t *testing.T) {
	const n = 16
	script := fifoScript(workload.ClientServer, n, 2000, 7)
	run := func(compress bool) sim.Metrics {
		cfg := fdasLGC(n)
		cfg.Compress = compress
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(script); err != nil {
			t.Fatal(err)
		}
		return r.Metrics()
	}
	full, comp := run(false), run(true)
	if float64(comp.PiggybackEntries) >= 0.7*float64(full.PiggybackEntries) {
		t.Errorf("compression saved too little: %d vs %d entries",
			comp.PiggybackEntries, full.PiggybackEntries)
	}
	t.Logf("piggyback entries: full=%d compressed=%d (%.1fx)",
		full.PiggybackEntries, comp.PiggybackEntries,
		float64(full.PiggybackEntries)/float64(comp.PiggybackEntries))
}

// TestCompressionRejectsReordering checks the FIFO requirement is enforced:
// a script that delivers a pair's messages out of send order must fail.
func TestCompressionRejectsReordering(t *testing.T) {
	var s ccp.Script
	s.N = 2
	m0 := s.Send(0)
	m1 := s.Send(0)
	s.Recv(1, m1) // second send delivered first: not FIFO
	s.Recv(1, m0)

	cfg := fdasLGC(2)
	cfg.Compress = true
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(s); err == nil {
		t.Fatal("reordered delivery should be rejected under compression")
	}

	// The same script is fine without compression.
	r2, err := sim.NewRunner(fdasLGC(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(s); err != nil {
		t.Fatalf("full-vector mode should accept reordering: %v", err)
	}
}

// TestCompressionSurvivesRecovery checks the encoder resets across recovery
// sessions and the equivalence holds afterwards.
func TestCompressionSurvivesRecovery(t *testing.T) {
	const n = 3
	s1 := fifoScript(workload.ClientServer, n, 90, 11)
	s2 := fifoScript(workload.Ring, n, 60, 12)

	run := func(compress bool) *sim.Runner {
		cfg := fdasLGC(n)
		cfg.Compress = compress
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(s1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Recover([]int{1}, true); err != nil {
			t.Fatal(err)
		}
		if err := r.Run(s2); err != nil {
			t.Fatal(err)
		}
		return r
	}
	full, comp := run(false), run(true)
	for i := 0; i < n; i++ {
		if !full.CurrentDV(i).Equal(comp.CurrentDV(i)) {
			t.Fatalf("p%d DV diverges after recovery: %v vs %v",
				i, full.CurrentDV(i), comp.CurrentDV(i))
		}
		if !reflect.DeepEqual(full.Store(i).Indices(), comp.Store(i).Indices()) {
			t.Fatalf("p%d stores diverge after recovery", i)
		}
	}
}
