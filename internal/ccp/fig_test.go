package ccp

import (
	"reflect"
	"sort"
	"testing"
)

// TestFig1Facts asserts every fact the paper states about Figure 1.
func TestFig1Facts(t *testing.T) {
	f := NewFig1(true)
	c := f.Script.BuildCCP()

	if c.LastStable(0) != 1 || c.LastStable(1) != 1 || c.LastStable(2) != 2 {
		t.Fatalf("lastS = %d,%d,%d; want 1,1,2",
			c.LastStable(0), c.LastStable(1), c.LastStable(2))
	}

	s01 := CheckpointID{Process: 0, Index: 0}
	s11 := CheckpointID{Process: 0, Index: 1}
	v1 := CheckpointID{Process: 0, Index: c.VolatileIndex(0)}
	s12 := CheckpointID{Process: 1, Index: 1}
	s13 := CheckpointID{Process: 2, Index: 1}
	s23 := CheckpointID{Process: 2, Index: 2}

	// "[m1, m2] and [m1, m4] are examples of C-paths, and [m5, m4] is an
	// example of Z-path."
	if !c.IsCausalPath([]int{f.M1, f.M2}, s01, s13) {
		t.Error("[m1,m2] should be a C-path from s_1^0 to s_3^1")
	}
	if !c.IsCausalPath([]int{f.M1, f.M4}, s01, s23) {
		t.Error("[m1,m4] should be a C-path from s_1^0 to s_3^2")
	}
	if !c.IsZigzagPath([]int{f.M5, f.M4}, s11, s23) {
		t.Error("[m5,m4] should be a zigzag path from s_1^1 to s_3^2")
	}
	if c.IsCausalPath([]int{f.M5, f.M4}, s11, s23) {
		t.Error("[m5,m4] must be non-causal (a Z-path)")
	}

	// "{v1, s_2^1, s_3^1} is consistent and {s_1^0, s_2^1, s_3^1} is
	// inconsistent, since s_1^0 → s_2^1."
	if !c.IsConsistentGlobal([]int{v1.Index, s12.Index, s13.Index}) {
		t.Error("{v1, s_2^1, s_3^1} should be consistent")
	}
	if c.IsConsistentGlobal([]int{s01.Index, s12.Index, s13.Index}) {
		t.Error("{s_1^0, s_2^1, s_3^1} should be inconsistent")
	}
	if !c.CausallyPrecedes(s01, s12) {
		t.Error("s_1^0 → s_2^1 should hold")
	}

	// "The CCP presented in Figure 1 is RD-trackable."
	if v, bad := c.FirstRDTViolation(); bad {
		t.Errorf("Figure 1 CCP should be RDT; violation: %v", v)
	}
}

// TestFig1WithoutM3 asserts the RDT violation the paper derives when m3 is
// removed: s_1^1 ⤳ s_3^2 via [m5,m4] but s_1^1 ↛ s_3^2.
func TestFig1WithoutM3(t *testing.T) {
	f := NewFig1(false)
	c := f.Script.BuildCCP()

	s11 := CheckpointID{Process: 0, Index: 1}
	s23 := CheckpointID{Process: 2, Index: 2}

	if !c.IsZigzagPath([]int{f.M5, f.M4}, s11, s23) {
		t.Fatal("[m5,m4] should still be a zigzag path from s_1^1 to s_3^2")
	}
	if !c.ZigzagReachable(s11, s23) {
		t.Error("s_1^1 ⤳ s_3^2 should hold")
	}
	if c.CausallyPrecedes(s11, s23) {
		t.Error("s_1^1 ↛ s_3^2 should hold without m3")
	}
	if c.IsRDT() {
		t.Error("Figure 1 without m3 must not be RDT")
	}
}

// TestFig2DominoEffect asserts Figure 2's facts: every stable checkpoint but
// the initial ones is useless, [m2,m1] is a zigzag cycle through s_1^1, and
// the only consistent global checkpoint among stable ones is the initial one.
func TestFig2DominoEffect(t *testing.T) {
	f := NewFig2()
	c := f.Script.BuildCCP()

	s11 := CheckpointID{Process: 0, Index: 1}
	if !c.IsZigzagPath([]int{f.M2, f.M1}, s11, s11) {
		t.Error("[m2,m1] should be a zigzag path connecting s_1^1 to itself")
	}
	if c.IsCausalPath([]int{f.M2, f.M1}, s11, s11) {
		t.Error("[m2,m1] must be non-causal")
	}

	for p := 0; p < 2; p++ {
		for g := 0; g <= c.LastStable(p); g++ {
			id := CheckpointID{Process: p, Index: g}
			useless := c.IsUseless(id)
			if g == 0 && useless {
				t.Errorf("%v should not be useless", id)
			}
			if g > 0 && !useless {
				t.Errorf("%v should be useless (domino effect)", id)
			}
		}
	}
	if c.IsRDT() {
		t.Error("Figure 2 CCP must not be RDT (it has zigzag cycles)")
	}

	// Exhaustive search: the only consistent global checkpoint not using a
	// volatile state is {s_1^0, s_2^0} — a failure dominoes to the start.
	for i1 := 0; i1 <= c.LastStable(0); i1++ {
		for i2 := 0; i2 <= c.LastStable(1); i2++ {
			if c.IsConsistentGlobal([]int{i1, i2}) && (i1 != 0 || i2 != 0) {
				t.Errorf("unexpected consistent stable global checkpoint {s_1^%d, s_2^%d}", i1, i2)
			}
		}
	}
	if !c.IsConsistentGlobal([]int{0, 0}) {
		t.Error("{s_1^0, s_2^0} should be consistent")
	}
}

// TestFig3RecoveryLine asserts Figure 3's facts for F = {p2, p3}.
func TestFig3RecoveryLine(t *testing.T) {
	f := NewFig3()
	c := f.Script.BuildCCP()

	if got := []int{c.LastStable(0), c.LastStable(1), c.LastStable(2), c.LastStable(3)}; !reflect.DeepEqual(got, []int{0, 3, 3, 4}) {
		t.Fatalf("lastS = %v, want [0 3 3 4]", got)
	}

	// s_2^last → s_3^last, which keeps s_3^last out of the recovery line.
	last2 := CheckpointID{Process: 1, Index: 3}
	last3 := CheckpointID{Process: 2, Index: 3}
	if !c.CausallyPrecedes(last2, last3) {
		t.Error("s_2^last → s_3^last should hold")
	}

	line := c.RecoveryLine(f.Faulty)
	want := []int{c.VolatileIndex(0), 3, 2, 3} // {v1, s_2^3, s_3^2, s_4^3}
	if !reflect.DeepEqual(line, want) {
		t.Fatalf("RecoveryLine(F={p2,p3}) = %v, want %v", line, want)
	}
	if line[2] == last3.Index {
		t.Error("s_3^last must not be part of the recovery line")
	}
	if !c.IsConsistentGlobal(line) {
		t.Error("the recovery line must be a consistent global checkpoint")
	}

	// "there are exactly five obsolete checkpoints"
	got := c.ObsoleteSet()
	want5 := f.PaperObsolete()
	sortIDs(got)
	sortIDs(want5)
	if !reflect.DeepEqual(got, want5) {
		t.Errorf("ObsoleteSet = %v, want %v", got, want5)
	}
	every := func(i int) (stored []int) {
		for g := 0; g <= c.LastStable(i); g++ {
			stored = append(stored, g)
		}
		return stored
	}
	if obsolete, kept := c.ObsoleteStored(every); obsolete != 5 || kept != 5 {
		t.Errorf("ObsoleteStored(every stable checkpoint) = %d, %d, want 5, 5", obsolete, kept)
	}
	if obsolete, kept := c.ObsoleteStored(func(int) []int { return nil }); obsolete != 5 || kept != 0 {
		t.Errorf("ObsoleteStored(nothing) = %d, %d, want 5, 0", obsolete, kept)
	}

	if v, bad := c.FirstRDTViolation(); bad {
		t.Errorf("Figure 3 CCP should be RDT; violation: %v", v)
	}
}

// TestFig4PatternIsRDT checks the Figure 4 execution produces an
// RD-trackable pattern (the collector trace itself is asserted in
// internal/core against the real implementation).
func TestFig4PatternIsRDT(t *testing.T) {
	f4 := NewFig4()
	c := f4.Script.BuildCCP()
	if v, bad := c.FirstRDTViolation(); bad {
		t.Fatalf("Figure 4 CCP should be RDT; violation: %v", v)
	}
	// s_2^1 is obsolete per Theorem 1 (ground truth) even though RDT-LGC
	// cannot identify it — the gap the paper highlights.
	if !c.Obsolete(1, 1) {
		t.Error("s_2^1 should be obsolete per Theorem 1")
	}
}

// TestWorstCaseIsRDT checks the generalized Figure 5 executions are RDT for
// several n.
func TestWorstCaseIsRDT(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6} {
		ws := WorstCase(n)
		c := ws.BuildCCP()
		if v, bad := c.FirstRDTViolation(); bad {
			t.Errorf("WorstCase(%d) should be RDT; violation: %v", n, v)
		}
		for p := 0; p < n; p++ {
			if c.LastStable(p) != n {
				t.Errorf("WorstCase(%d): lastS(p%d) = %d, want %d", n, p, c.LastStable(p), n)
			}
		}
	}
}

func sortIDs(ids []CheckpointID) {
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].Process != ids[b].Process {
			return ids[a].Process < ids[b].Process
		}
		return ids[a].Index < ids[b].Index
	})
}
