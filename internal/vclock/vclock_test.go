package vclock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewIsZeroed(t *testing.T) {
	dv := New(4)
	if dv.Len() != 4 {
		t.Fatalf("Len = %d, want 4", dv.Len())
	}
	for i, v := range dv {
		if v != 0 {
			t.Errorf("dv[%d] = %d, want 0", i, v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	dv := DV{1, 2, 3}
	c := dv.Clone()
	c[0] = 99
	if dv[0] != 1 {
		t.Fatalf("Clone aliases original: dv[0] = %d", dv[0])
	}
}

func TestCopyFrom(t *testing.T) {
	dst := New(3)
	dst.CopyFrom(DV{4, 5, 6})
	if !dst.Equal(DV{4, 5, 6}) {
		t.Fatalf("CopyFrom result = %v", dst)
	}
}

func TestCopyFromLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(2).CopyFrom(New(3))
}

func TestMergeReportsIncreases(t *testing.T) {
	tests := []struct {
		name      string
		dv, m     DV
		want      DV
		increased []int
	}{
		{"no change", DV{2, 2, 2}, DV{1, 2, 0}, DV{2, 2, 2}, nil},
		{"all increase", DV{0, 0, 0}, DV{1, 2, 3}, DV{1, 2, 3}, []int{0, 1, 2}},
		{"partial", DV{5, 0, 2}, DV{3, 4, 2}, DV{5, 4, 2}, []int{1}},
		{"equal is not new", DV{1, 1}, DV{1, 1}, DV{1, 1}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.dv.Merge(tt.m)
			if !reflect.DeepEqual(got, tt.increased) {
				t.Errorf("increased = %v, want %v", got, tt.increased)
			}
			if !tt.dv.Equal(tt.want) {
				t.Errorf("merged = %v, want %v", tt.dv, tt.want)
			}
		})
	}
}

func TestMergeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(2).Merge(New(3))
}

func TestMergeAppendMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	buf := make([]int, 0, 8) // reused across trials, like the call sites do
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		a, b := randomDV(rng, n), randomDV(rng, n)
		want := a.Clone()
		wantInc := want.Merge(b)
		got := a.Clone()
		buf = got.MergeAppend(b, buf[:0])
		if len(wantInc) != len(buf) || (len(buf) > 0 && !reflect.DeepEqual(wantInc, buf)) {
			t.Fatalf("MergeAppend(%v, %v) reported %v, Merge reported %v", a, b, buf, wantInc)
		}
		if !got.Equal(want) {
			t.Fatalf("MergeAppend merged to %v, Merge to %v", got, want)
		}
	}
}

func TestMergeAppendExtendsBuffer(t *testing.T) {
	dv := DV{0, 5, 0}
	buf := []int{99}
	buf = dv.MergeAppend(DV{1, 1, 2}, buf)
	if !reflect.DeepEqual(buf, []int{99, 0, 2}) {
		t.Fatalf("buf = %v, want [99 0 2]", buf)
	}
	if !dv.Equal(DV{1, 5, 2}) {
		t.Fatalf("dv = %v, want (1, 5, 2)", dv)
	}
}

func TestMergeAppendDoesNotAllocate(t *testing.T) {
	local, msg := New(64), New(64)
	buf := make([]int, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for j := range msg {
			msg[j]++ // every entry carries new info, worst case
		}
		buf = local.MergeAppend(msg, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("MergeAppend with a sized buffer allocated %.1f times per op, want 0", allocs)
	}
}

func TestMergeAppendLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(2).MergeAppend(New(3), nil)
}

func TestMaxWithMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		a, b := randomDV(rng, n), randomDV(rng, n)
		want := a.Clone()
		want.Merge(b)
		got := a.Clone()
		got.MaxWith(b)
		if !got.Equal(want) {
			t.Fatalf("MaxWith(%v, %v) = %v, Merge = %v", a, b, got, want)
		}
	}
}

func TestMaxWithDoesNotAllocate(t *testing.T) {
	local, msg := New(64), New(64)
	allocs := testing.AllocsPerRun(100, func() {
		for j := range msg {
			msg[j]++
		}
		local.MaxWith(msg)
	})
	if allocs != 0 {
		t.Fatalf("MaxWith allocated %.1f times per op, want 0", allocs)
	}
}

func TestNewInfoMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		a, b := randomDV(rng, n), randomDV(rng, n)
		pred := a.NewInfo(b)
		inc := a.Clone().Merge(b)
		if pred != (len(inc) > 0) {
			t.Fatalf("NewInfo(%v, %v) = %v but Merge increased %v", a, b, pred, inc)
		}
	}
}

func TestDominates(t *testing.T) {
	if !(DV{2, 3}).Dominates(DV{2, 2}) {
		t.Error("expected {2,3} to dominate {2,2}")
	}
	if (DV{2, 1}).Dominates(DV{2, 2}) {
		t.Error("did not expect {2,1} to dominate {2,2}")
	}
	if !(DV{1, 1}).Dominates(DV{1, 1}) {
		t.Error("domination must be reflexive")
	}
}

func TestPrecedesCheckpoint(t *testing.T) {
	// DV(c)[a] = 3 means c depends on interval 3 of p_a, so checkpoints
	// 0, 1, 2 of p_a precede c but checkpoint 3 does not (Equation 2).
	dv := DV{0, 3, 0}
	for idx := 0; idx < 3; idx++ {
		if !PrecedesCheckpoint(1, idx, dv) {
			t.Errorf("s_1^%d should precede c with DV %v", idx, dv)
		}
	}
	if PrecedesCheckpoint(1, 3, dv) {
		t.Errorf("s_1^3 should not precede c with DV %v", dv)
	}
}

func TestLastKnown(t *testing.T) {
	dv := DV{2, 0, 5}
	if got := LastKnown(dv, 0); got != 1 {
		t.Errorf("LastKnown(0) = %d, want 1", got)
	}
	if got := LastKnown(dv, 1); got != -1 {
		t.Errorf("LastKnown(1) = %d, want -1 (no stable checkpoint known)", got)
	}
	if got := LastKnown(dv, 2); got != 4 {
		t.Errorf("LastKnown(2) = %d, want 4", got)
	}
}

func TestString(t *testing.T) {
	if got := (DV{1, 4, 2}).String(); got != "(1, 4, 2)" {
		t.Errorf("String() = %q, want %q", got, "(1, 4, 2)")
	}
	if got := (DV{}).String(); got != "()" {
		t.Errorf("String() = %q, want %q", got, "()")
	}
}

func randomDV(rng *rand.Rand, n int) DV {
	dv := New(n)
	for i := range dv {
		dv[i] = rng.Intn(6)
	}
	return dv
}

// genPair produces two random same-length vectors for property tests.
func genPair(rng *rand.Rand) (DV, DV) {
	n := 1 + rng.Intn(10)
	return randomDV(rng, n), randomDV(rng, n)
}

// Property: merge is idempotent — merging the same vector twice changes
// nothing the second time.
func TestQuickMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := genPair(rng)
		a.Merge(b)
		after := a.Clone()
		second := a.Merge(b)
		return len(second) == 0 && a.Equal(after)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merge is commutative in its result value (though not in the
// reported increase set).
func TestQuickMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := genPair(rng)
		x := a.Clone()
		x.Merge(b)
		y := b.Clone()
		y.Merge(a)
		return x.Equal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merge is associative.
func TestQuickMergeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a, b, c := randomDV(rng, n), randomDV(rng, n), randomDV(rng, n)
		left := a.Clone()
		left.Merge(b)
		left.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		right := a.Clone()
		right.Merge(bc)
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the merge result dominates both inputs, and any vector that
// dominates both inputs dominates the merge (least upper bound).
func TestQuickMergeIsLUB(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := genPair(rng)
		m := a.Clone()
		m.Merge(b)
		if !m.Dominates(a) || !m.Dominates(b) {
			return false
		}
		// Any upper bound u of {a, b} must dominate m.
		u := a.Clone()
		u.Merge(b)
		for i := range u {
			u[i] += rng.Intn(3) // arbitrary upper bound above the LUB
		}
		return u.Dominates(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity — merging never decreases an entry.
func TestQuickMergeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := genPair(rng)
		before := a.Clone()
		a.Merge(b)
		return a.Dominates(before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
