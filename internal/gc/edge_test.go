package gc_test

import (
	"strings"
	"testing"

	"repro/internal/gc"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// fakeView is a minimal gc.View for error-path tests.
type fakeView struct {
	n      int
	lastS  []int
	dvs    []vclock.DV
	stores []storage.Store
}

func (v fakeView) N() int                    { return v.n }
func (v fakeView) LastStable(i int) int      { return v.lastS[i] }
func (v fakeView) CurrentDV(i int) vclock.DV { return v.dvs[i].Clone() }
func (v fakeView) Store(i int) storage.Store { return v.stores[i] }

func newFakeView(t *testing.T, n int) fakeView {
	t.Helper()
	v := fakeView{n: n, lastS: make([]int, n)}
	for i := 0; i < n; i++ {
		st := storage.NewMemStore()
		dv := vclock.New(n)
		if err := st.Save(storage.Checkpoint{Process: i, Index: 0, DV: dv.Clone()}); err != nil {
			t.Fatal(err)
		}
		dv[i] = 1
		v.dvs = append(v.dvs, dv)
		v.stores = append(v.stores, st)
	}
	return v
}

func TestComputeLineValidation(t *testing.T) {
	v := newFakeView(t, 2)
	if _, err := gc.ComputeLine(v, []int{5}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
	line, err := gc.ComputeLine(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range line {
		if c != 1 { // volatile component (lastS=0)
			t.Errorf("empty faulty set: line[%d] = %d, want volatile 1", i, c)
		}
	}
}

// TestComputeLineRefusesShortStoredVector holds the line to the length of
// the vectors it reads: a stored vector is outside input, and Equation 2
// indexes a candidate's faulty entries, so an (n−1)-entry record fails the
// line with an error naming the process and the checkpoint instead of an
// index out of range.
func TestComputeLineRefusesShortStoredVector(t *testing.T) {
	v := newFakeView(t, 2)
	short := storage.NewMemStore()
	if err := short.Save(storage.Checkpoint{Process: 0, Index: 0, DV: vclock.DV{0}}); err != nil {
		t.Fatal(err)
	}
	v.stores[0] = short
	// Both faulty: p0's newest checkpoint is a candidate Equation 2 compares
	// on p1's entry.
	_, err := gc.ComputeLine(v, []int{0, 1})
	if err == nil || !strings.Contains(err.Error(), "p0 checkpoint 0") {
		t.Fatalf("ComputeLine over a 1-entry stored vector at n=2: %v, want an error naming p0 checkpoint 0", err)
	}
}

func TestComputeLineFreshSystem(t *testing.T) {
	v := newFakeView(t, 3)
	line, err := gc.ComputeLine(v, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if line[1] != 0 {
		t.Errorf("faulty fresh process should restart from s^0, got %d", line[1])
	}
	if line[0] != 1 || line[2] != 1 {
		t.Errorf("independent processes keep volatile states, got %v", line)
	}
}

func TestNoGCRollbackMissingTarget(t *testing.T) {
	st := storage.NewMemStore()
	if err := st.Save(storage.Checkpoint{Index: 0, DV: vclock.New(2)}); err != nil {
		t.Fatal(err)
	}
	g := gc.NewNoGC(0, 2, st)
	if _, err := g.Rollback(7, nil); err == nil {
		t.Fatal("rollback to missing checkpoint should fail")
	}
}

func TestRollbackStoreRecreatesDV(t *testing.T) {
	st := storage.NewMemStore()
	for i := 0; i < 3; i++ {
		dv := vclock.New(2)
		dv[0] = i
		dv[1] = i * 2
		if err := st.Save(storage.Checkpoint{Index: i, DV: dv}); err != nil {
			t.Fatal(err)
		}
	}
	dv, err := gc.RollbackStore(st, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dv[0] != 2 || dv[1] != 2 { // stored (1,2) with self incremented
		t.Fatalf("recreated DV = %v, want (2, 2)", dv)
	}
	if got := st.Indices(); len(got) != 2 {
		t.Fatalf("store after rollback = %v, want indices 0 and 1", got)
	}
}

func TestCollectorNames(t *testing.T) {
	if gc.NewSynchronous().Name() != "sync-theorem1" {
		t.Error("Synchronous name changed")
	}
	if gc.NewRecoveryLine().Name() != "recovery-line" {
		t.Error("RecoveryLine name changed")
	}
}
