package rdt_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Both engines are drivers of the same middleware kernel (internal/node),
// so the same deterministic operation stream must produce bit-identical
// middleware behaviour through either: the simulator replays it as a script
// with immediate deliveries, the live cluster replays it serialized (one
// operation at a time, zero delays, network drained between operations).
// These tests pin that equivalence — histories, stores, vectors, checkpoint
// counts, piggyback totals and recovery lines — and run in the CI
// determinism lane.

// xop is one operation of a cross-engine stream: a basic checkpoint of p,
// or a send p→to delivered immediately.
type xop struct {
	p, to int
	ckpt  bool
}

// xstream generates a deterministic operation stream. Every send is
// delivered immediately, so the pattern is trivially FIFO per pair — valid
// under compression and replayable by both engines.
func xstream(n, ops int, seed int64) []xop {
	rng := rand.New(rand.NewSource(seed))
	out := make([]xop, 0, ops)
	for i := 0; i < ops; i++ {
		p := rng.Intn(n)
		if rng.Float64() < 0.25 {
			out = append(out, xop{p: p, ckpt: true})
			continue
		}
		to := rng.Intn(n - 1)
		if to >= p {
			to++
		}
		out = append(out, xop{p: p, to: to})
	}
	return out
}

// script renders the stream as a simulator script.
func xscript(n int, stream []xop) ccp.Script {
	s := ccp.Script{N: n}
	for _, op := range stream {
		if op.ckpt {
			s.Checkpoint(op.p)
		} else {
			s.Message(op.p, op.to)
		}
	}
	return s
}

// xdrive replays the stream serialized on the live cluster: each send is
// drained before the next operation, so the linearized history matches the
// script's total order exactly.
func xdrive(t *testing.T, c *runtime.Cluster, stream []xop) {
	t.Helper()
	for _, op := range stream {
		if op.ckpt {
			if err := c.Node(op.p).Checkpoint(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := c.Node(op.p).Send(op.to); err != nil {
			t.Fatal(err)
		}
		c.Quiesce()
	}
}

// xcompare asserts the two engines hold identical middleware state.
func xcompare(t *testing.T, phase string, r *sim.Runner, c *runtime.Cluster) {
	t.Helper()
	n := r.N()
	sh, lh := r.History(), c.History()
	if !reflect.DeepEqual(sh.Ops, lh.Ops) {
		t.Fatalf("%s: executed histories diverge:\nsim  %v\nlive %v", phase, sh.Ops, lh.Ops)
	}
	for i := 0; i < n; i++ {
		if !r.CurrentDV(i).Equal(c.Node(i).CurrentDV()) {
			t.Errorf("%s: p%d DV sim %v != live %v", phase, i, r.CurrentDV(i), c.Node(i).CurrentDV())
		}
		if r.LastStable(i) != c.Node(i).LastStable() {
			t.Errorf("%s: p%d lastS sim %d != live %d", phase, i, r.LastStable(i), c.Node(i).LastStable())
		}
		if !reflect.DeepEqual(r.Store(i).Indices(), c.Node(i).Store().Indices()) {
			t.Errorf("%s: p%d retained sets diverge: sim %v vs live %v",
				phase, i, r.Store(i).Indices(), c.Node(i).Store().Indices())
		}
	}
	m := r.Metrics()
	var basic, forced int
	for i := 0; i < n; i++ {
		b, f, _ := c.Node(i).Stats()
		basic += b
		forced += f
	}
	if m.Basic != basic || m.Forced != forced {
		t.Errorf("%s: checkpoint counts diverge: sim (%d,%d) vs live (%d,%d)",
			phase, m.Basic, m.Forced, basic, forced)
	}
	if m.PiggybackEntries != c.PiggybackEntries() {
		t.Errorf("%s: piggybacked entries diverge: sim %d vs live %d",
			phase, m.PiggybackEntries, c.PiggybackEntries())
	}
	// Both linearized histories rebuild the same oracle; one verdict pass
	// suffices once the histories are known equal.
	if v, bad := r.Oracle().FirstRDTViolation(); bad {
		t.Errorf("%s: pattern not RDT: %v", phase, v)
	}
}

// TestCrossEngineDifferential runs the same deterministic stream through
// the simulator and a serialized live cluster — full-vector and compressed,
// with the RDT-LGC collector — then puts both through the same recovery
// session and a post-recovery stream, asserting identical checkpoint and
// communication patterns, retained sets and recovery lines throughout.
func TestCrossEngineDifferential(t *testing.T) {
	const n = 4
	for _, compress := range []bool{false, true} {
		compress := compress
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			lgc := func(self, nn int, st storage.Store) gc.Local { return core.New(self, nn, st) }
			fdas := func(int) protocol.Protocol { return protocol.NewFDAS() }

			r, err := sim.NewRunner(sim.Config{
				N: n, Protocol: fdas, LocalGC: lgc, Compress: compress,
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := runtime.NewCluster(runtime.Config{
				N: n, Protocol: fdas, LocalGC: lgc, Compress: compress, Record: true,
			})
			if err != nil {
				t.Fatal(err)
			}

			stream := xstream(n, 120, 1303)
			if err := r.Run(xscript(n, stream)); err != nil {
				t.Fatal(err)
			}
			xdrive(t, c, stream)
			xcompare(t, "after drive", r, c)

			// The same centralized recovery session on both engines.
			faulty := []int{1}
			srep, err := r.Recover(faulty, true)
			if err != nil {
				t.Fatal(err)
			}
			lrep, err := c.Recover(faulty, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(srep.Line, lrep.Line) {
				t.Fatalf("recovery lines diverge: sim %v vs live %v", srep.Line, lrep.Line)
			}
			if !reflect.DeepEqual(srep.RolledBack, lrep.RolledBack) {
				t.Fatalf("rolled-back sets diverge: sim %v vs live %v", srep.RolledBack, lrep.RolledBack)
			}
			xcompare(t, "after recovery", r, c)

			// Execution continues identically on the truncated pattern.
			cont := xstream(n, 60, 4177)
			if err := r.Run(xscript(n, cont)); err != nil {
				t.Fatal(err)
			}
			xdrive(t, c, cont)
			xcompare(t, "after continuation", r, c)
		})
	}
}

// TestCrossEngineDeterminism pins the serialized live replay itself: two
// clusters fed the same stream produce byte-identical histories, so the
// differential test above cannot pass by accident of scheduling.
func TestCrossEngineDeterminism(t *testing.T) {
	const n = 3
	stream := xstream(n, 80, 99)
	mk := func() ccp.Script {
		c, err := runtime.NewCluster(runtime.Config{N: n, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		xdrive(t, c, stream)
		return c.History()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.Ops, b.Ops) {
		t.Fatal("two serialized replays of the same stream diverged")
	}
}
