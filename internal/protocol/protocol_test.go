package protocol_test

import (
	"math/rand"
	"testing"

	"repro/internal/ccp"
	"repro/internal/protocol"
	"repro/internal/sim"
)

func runWith(t *testing.T, factory func() protocol.Protocol, n int, seed int64, ops int) *sim.Runner {
	t.Helper()
	r, err := sim.NewRunner(sim.Config{
		N:        n,
		Protocol: func(int) protocol.Protocol { return factory() },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ccp.RandomScript(rand.New(rand.NewSource(seed)), ccp.RandomOptions{N: n, Ops: ops, PLoss: 0.05})
	if err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRDTProtocolsEnsureRDT checks CBR, FDI and FDAS produce RD-trackable
// patterns on random workloads.
func TestRDTProtocolsEnsureRDT(t *testing.T) {
	factories := map[string]func() protocol.Protocol{
		"CBR":     func() protocol.Protocol { return protocol.NewCBR() },
		"FDI":     func() protocol.Protocol { return protocol.NewFDI() },
		"FDAS":    func() protocol.Protocol { return protocol.NewFDAS() },
		"Russell": func() protocol.Protocol { return protocol.NewRussell() },
	}
	for name, f := range factories {
		f := f
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			for trial := 0; trial < 40; trial++ {
				n := 2 + rng.Intn(4)
				r := runWith(t, f, n, rng.Int63(), 40+rng.Intn(40))
				if v, bad := r.Oracle().FirstRDTViolation(); bad {
					t.Fatalf("trial %d: %s produced non-RDT pattern: %v", trial, name, v)
				}
			}
		})
	}
}

// TestBCSIsZCycleFreeButNotRDT checks the index-based baseline: no useless
// checkpoints on random workloads (Z-cycle freedom), yet some execution
// violates RDT.
func TestBCSIsZCycleFreeButNotRDT(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	violatedRDT := false
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		r := runWith(t, func() protocol.Protocol { return protocol.NewBCS() }, n, rng.Int63(), 60)
		oracle := r.Oracle()
		if u := oracle.UselessCheckpoints(); len(u) != 0 {
			t.Fatalf("trial %d: BCS produced useless checkpoints %v", trial, u)
		}
		if !oracle.IsRDT() {
			violatedRDT = true
		}
	}
	if !violatedRDT {
		t.Error("BCS never violated RDT across 60 random runs; expected it not to guarantee RDT")
	}
}

// TestNoneExhibitsDominoEffect replays Figure 2 with no forced checkpoints
// and checks all non-initial checkpoints are useless, while FDAS on the same
// workload leaves none useless.
func TestNoneExhibitsDominoEffect(t *testing.T) {
	fig := ccp.NewFig2()

	rNone, err := sim.NewRunner(sim.Config{N: 2, Protocol: protocol.Factory("none")})
	if err != nil {
		t.Fatal(err)
	}
	if err := rNone.Run(fig.Script); err != nil {
		t.Fatal(err)
	}
	oracle := rNone.Oracle()
	useless := oracle.UselessCheckpoints()
	if len(useless) == 0 {
		t.Fatal("uncoordinated Figure 2 run should contain useless checkpoints")
	}

	rFDAS, err := sim.NewRunner(sim.Config{
		N:        2,
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rFDAS.Run(fig.Script); err != nil {
		t.Fatal(err)
	}
	if u := rFDAS.Oracle().UselessCheckpoints(); len(u) != 0 {
		t.Fatalf("FDAS should break every zigzag cycle; still useless: %v", u)
	}
	if rFDAS.Metrics().Forced == 0 {
		t.Error("FDAS should have taken forced checkpoints on the Figure 2 workload")
	}
}

// TestForcedCheckpointOrdering checks the protocol hierarchy: on identical
// workloads CBR forces at least as many checkpoints as FDI, which forces at
// least as many as FDAS.
func TestForcedCheckpointOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		seed := rng.Int63()
		forced := func(f func() protocol.Protocol) int {
			r := runWith(t, f, n, seed, 60)
			return r.Metrics().Forced
		}
		cbr := forced(func() protocol.Protocol { return protocol.NewCBR() })
		fdi := forced(func() protocol.Protocol { return protocol.NewFDI() })
		fdas := forced(func() protocol.Protocol { return protocol.NewFDAS() })
		russell := forced(func() protocol.Protocol { return protocol.NewRussell() })
		if cbr < fdi || fdi < fdas {
			t.Errorf("trial %d: forced counts CBR=%d FDI=%d FDAS=%d violate hierarchy", trial, cbr, fdi, fdas)
		}
		if cbr < russell || russell < fdas {
			t.Errorf("trial %d: forced counts CBR=%d Russell=%d FDAS=%d violate hierarchy", trial, cbr, russell, fdas)
		}
	}
}

// TestRDTClassification checks the RDT helper.
func TestRDTClassification(t *testing.T) {
	for _, tc := range []struct {
		p    protocol.Protocol
		want bool
	}{
		{protocol.NewCBR(), true},
		{protocol.NewFDI(), true},
		{protocol.NewFDAS(), true},
		{protocol.NewRussell(), true},
		{protocol.NewBCS(), false},
		{protocol.NewNone(), false},
	} {
		if got := protocol.RDT(tc.p); got != tc.want {
			t.Errorf("RDT(%s) = %v, want %v", tc.p.Name(), got, tc.want)
		}
	}
}

// TestFDASForcesOnlyAfterSend checks the defining FDAS behaviour: new
// causal information forces a checkpoint only when a message was sent in
// the current interval.
func TestFDASForcesOnlyAfterSend(t *testing.T) {
	r, err := sim.NewRunner(sim.Config{
		N:        3,
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
	})
	if err != nil {
		t.Fatal(err)
	}
	var s ccp.Script
	s.N = 3
	s.Message(0, 1) // p1 receives without having sent: no forced checkpoint
	if err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics().Forced; got != 0 {
		t.Fatalf("receive without prior send forced %d checkpoints, want 0", got)
	}

	var s2 ccp.Script
	s2.N = 3
	s2.Message(1, 2) // p2 sends first ...
	s2.Checkpoint(0) // p1 advances its interval, so its next message is news
	s2.Message(0, 1) // ... and p2 receives new info about p1: forced
	if err := r.Run(s2); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics().Forced; got != 1 {
		t.Fatalf("receive after send with new info forced %d checkpoints, want 1", got)
	}
}
