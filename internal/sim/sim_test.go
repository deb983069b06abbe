package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

func fdasLGC(n int) sim.Config {
	return sim.Config{
		N:        n,
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
	}
}

// TestDeterminism checks two runners fed the same script end in identical
// states — the property every experiment in the repository relies on.
func TestDeterminism(t *testing.T) {
	s := ccp.RandomScript(rand.New(rand.NewSource(5)), ccp.RandomOptions{N: 4, Ops: 80})
	mk := func() *sim.Runner {
		r, err := sim.NewRunner(fdasLGC(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(s); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	if a.Metrics() != b.Metrics() {
		t.Fatalf("metrics differ: %+v vs %+v", a.Metrics(), b.Metrics())
	}
	for i := 0; i < 4; i++ {
		if !a.CurrentDV(i).Equal(b.CurrentDV(i)) {
			t.Errorf("p%d DV differs: %v vs %v", i, a.CurrentDV(i), b.CurrentDV(i))
		}
		if !reflect.DeepEqual(a.Store(i).Indices(), b.Store(i).Indices()) {
			t.Errorf("p%d stores differ: %v vs %v", i, a.Store(i).Indices(), b.Store(i).Indices())
		}
	}
	ha, hb := a.History(), b.History()
	if !reflect.DeepEqual(ha.Ops, hb.Ops) {
		t.Error("executed histories differ")
	}
}

// TestStoredDVsMatchOracle checks every stored checkpoint carries exactly
// the dependency vector the ground-truth pattern assigns it.
func TestStoredDVsMatchOracle(t *testing.T) {
	r, err := sim.NewRunner(fdasLGC(4))
	if err != nil {
		t.Fatal(err)
	}
	s := ccp.RandomScript(rand.New(rand.NewSource(13)), ccp.RandomOptions{N: 4, Ops: 70})
	if err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	oracle := r.Oracle()
	for i := 0; i < 4; i++ {
		for _, idx := range r.Store(i).Indices() {
			cp, err := r.Store(i).Load(idx)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.DV(ccp.CheckpointID{Process: i, Index: idx})
			if !cp.DV.Equal(want) {
				t.Errorf("p%d s^%d stored DV %v, oracle %v", i, idx, cp.DV, want)
			}
			if cp.DV[i] != idx {
				t.Errorf("p%d s^%d stored DV self entry %d, want %d", i, idx, cp.DV[i], idx)
			}
		}
	}
}

// TestRecoveryTruncation checks the post-recovery oracle: each surviving
// process history ends at its line component and the pattern stays
// well-formed across continued execution.
func TestRecoveryTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		r, err := sim.NewRunner(fdasLGC(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 50})); err != nil {
			t.Fatal(err)
		}
		rep, err := r.Recover([]int{rng.Intn(n)}, true)
		if err != nil {
			t.Fatal(err)
		}
		oracle := r.Oracle()
		for i := 0; i < n; i++ {
			wantLast := rep.Line[i]
			if wantLast > oracle.LastStable(i) { // volatile component
				continue
			}
			if oracle.LastStable(i) != wantLast {
				t.Errorf("trial %d: p%d lastS after recovery = %d, want line %d",
					trial, i, oracle.LastStable(i), wantLast)
			}
			if !r.CurrentDV(i).Equal(oracle.DV(ccp.CheckpointID{Process: i, Index: oracle.VolatileIndex(i)})) {
				t.Errorf("trial %d: p%d live DV diverges from the truncated history", trial, i)
			}
		}
		// Execution continues seamlessly on the truncated pattern.
		if err := r.Run(ccp.RandomScript(rng, ccp.RandomOptions{N: n, Ops: 30})); err != nil {
			t.Fatalf("trial %d: continue after recovery: %v", trial, err)
		}
		if v, bad := r.Oracle().FirstRDTViolation(); bad {
			t.Fatalf("trial %d: continued pattern not RDT: %v", trial, v)
		}
	}
}

// TestScriptMismatchRejected checks scripts sized for a different system
// are refused.
func TestScriptMismatchRejected(t *testing.T) {
	r, err := sim.NewRunner(fdasLGC(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(ccp.Script{N: 2}); err == nil {
		t.Fatal("script with wrong N should be rejected")
	}
}

// TestMetricsCounting checks basic/forced/send/deliver counters.
func TestMetricsCounting(t *testing.T) {
	r, err := sim.NewRunner(fdasLGC(2))
	if err != nil {
		t.Fatal(err)
	}
	var s ccp.Script
	s.N = 2
	s.Checkpoint(0)
	m := s.Send(0)
	s.Recv(1, m)
	s.Send(1) // never delivered
	if err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	got := r.Metrics()
	if got.Basic != 1 || got.Sends != 2 || got.Delivered != 1 {
		t.Fatalf("metrics = %+v, want Basic=1 Sends=2 Delivered=1", got)
	}
}

// frozenView passes a runner's view through and remembers every vector its
// CurrentDV lends, with a copy: check fails if one changed since.
type frozenView struct {
	gc.View
	lent, copies []vclock.DV
}

func (v *frozenView) CurrentDV(i int) vclock.DV {
	dv := v.View.CurrentDV(i)
	v.lent = append(v.lent, dv)
	v.copies = append(v.copies, dv.Clone())
	return dv
}

func (v *frozenView) check(t *testing.T, call string) {
	t.Helper()
	for k, dv := range v.lent {
		if !dv.Equal(v.copies[k]) {
			t.Fatalf("%s wrote a lent vector: %v, was %v", call, dv, v.copies[k])
		}
	}
	v.lent, v.copies = v.lent[:0], v.copies[:0]
}

// TestLentViewIsReadOnly: the runner's view lends the kernels' live vectors,
// so the readers of a gc.View — both global collectors and the recovery
// line a Recover computes — must leave them as they found them.
func TestLentViewIsReadOnly(t *testing.T) {
	const n = 5
	fdas := func(int) protocol.Protocol { return protocol.NewFDAS() }
	for _, global := range []gc.Global{gc.NewSynchronous(), gc.NewRecoveryLine()} {
		var v *frozenView
		r, err := sim.NewRunner(sim.Config{N: n, Protocol: fdas, AfterEvent: func() error {
			err := global.Collect(v)
			v.check(t, global.Name()+" Collect")
			return err
		}})
		if err != nil {
			t.Fatal(err)
		}
		v = &frozenView{View: r.View()}
		script := ccp.RandomScript(rand.New(rand.NewSource(11)), ccp.RandomOptions{N: n, Ops: 300})
		if err := r.Run(script); err != nil {
			t.Fatal(err)
		}
		line, err := gc.ComputeLine(v, []int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		v.check(t, "ComputeLine")
		if _, err := r.ApplyLine(line, true); err != nil {
			t.Fatal(err)
		}
		if err := r.Run(script); err != nil {
			t.Fatal(err)
		}
	}
}
