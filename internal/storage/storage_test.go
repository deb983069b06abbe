package storage

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func testStoreBasics(t *testing.T, s Store) {
	t.Helper()
	cp := Checkpoint{Process: 2, Index: 0, DV: vclock.DV{1, 0, 3}, State: []byte("hello")}
	if err := s.Save(cp); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(cp); err == nil {
		t.Fatal("duplicate Save should fail")
	}
	got, err := s.Load(0)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Process != 2 || got.Index != 0 || !got.DV.Equal(cp.DV) || !bytes.Equal(got.State, cp.State) {
		t.Fatalf("Load = %+v, want %+v", got, cp)
	}
	if err := s.Save(Checkpoint{Process: 2, Index: 3, DV: vclock.DV{2, 0, 4}}); err != nil {
		t.Fatalf("Save(3): %v", err)
	}
	if got := s.Indices(); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("Indices = %v, want [0 3]", got)
	}
	if err := s.Delete(0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete(0); err == nil {
		t.Fatal("double Delete should fail")
	}
	if _, err := s.Load(0); err == nil {
		t.Fatal("Load after Delete should fail")
	}
	st := s.Stats()
	if st.Live != 1 || st.Saved != 2 || st.Collected != 1 || st.Peak != 2 {
		t.Fatalf("Stats = %+v, want Live=1 Saved=2 Collected=1 Peak=2", st)
	}
}

func TestMemStoreBasics(t *testing.T) { testStoreBasics(t, NewMemStore()) }

// TestMemStoreIsolation checks stored checkpoints do not alias caller data.
func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	dv := vclock.DV{1, 2}
	state := []byte{9}
	if err := s.Save(Checkpoint{Index: 0, DV: dv, State: state}); err != nil {
		t.Fatal(err)
	}
	dv[0] = 99
	state[0] = 99
	got, err := s.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.DV[0] != 1 || got.State[0] != 9 {
		t.Fatalf("stored checkpoint aliases caller slices: %+v", got)
	}
	got.DV[0] = 77
	again, _ := s.Load(0)
	if again.DV[0] != 1 {
		t.Fatal("Load result aliases store internals")
	}
}

// TestEncodeDecodeRoundTrip property-tests the record format.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cp := Checkpoint{
			Process: rng.Intn(100),
			Index:   rng.Intn(1000),
			DV:      vclock.New(1 + rng.Intn(8)),
			State:   make([]byte, rng.Intn(64)),
		}
		for i := range cp.DV {
			cp.DV[i] = rng.Intn(50)
		}
		rng.Read(cp.State)
		got, err := DecodeRecord(AppendRecord(nil, cp))
		return err == nil && !got.Delta && got.Process == cp.Process && got.Index == cp.Index &&
			got.DV.Equal(cp.DV) && bytes.Equal(got.State, cp.State)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeRejectsGarbage checks corrupted records are rejected, not parsed.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte("not a checkpoint")); err == nil {
		t.Fatal("decode of garbage should fail")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("decode of empty input should fail")
	}
}

// TestStatsPeakTracking checks the high-water mark accounting used by the
// Figure 5 space-bound experiments.
func TestStatsPeakTracking(t *testing.T) {
	s := NewMemStore()
	for i := 0; i < 4; i++ {
		if err := s.Save(Checkpoint{Index: i, DV: vclock.New(1), State: make([]byte, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Peak != 4 || st.Live != 1 || st.PeakBytes != 40 || st.LiveBytes != 10 {
		t.Fatalf("Stats = %+v, want Peak=4 Live=1 PeakBytes=40 LiveBytes=10", st)
	}
}

// TestMemStoreReusesReapedVectors runs the collector's steady state — every
// save followed by the delete of the checkpoint it made obsolete — and
// checks that Save copies into the vectors Delete reaped instead of
// allocating, that a checkpoint loaded before its record was reaped does not
// change when the buffer is reused, that what stays live still loads
// exactly, and that the spare lists stay capped when many records go at
// once.
func TestMemStoreReusesReapedVectors(t *testing.T) {
	const n = 32
	s := NewMemStore()
	dv := vclock.New(n)
	idx := 0
	save := func() {
		dv[idx%n] += 2
		dv[(7*idx+3)%n]++
		if err := s.Save(Checkpoint{Index: idx, DV: dv}); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	cycle := func() {
		save()
		if err := s.Delete(idx - 2); err != nil {
			t.Fatal(err)
		}
	}
	save()
	for i := 0; i < 4*fullEvery; i++ {
		cycle() // through several full records and delta chains
	}
	held, err := s.Load(idx - 1)
	if err != nil {
		t.Fatal(err)
	}
	want := held.DV.Clone()
	if allocs := testing.AllocsPerRun(20*fullEvery, cycle); allocs != 0 {
		t.Errorf("save+delete cycle: %v allocs/op, want 0", allocs)
	}
	if !held.DV.Equal(want) {
		t.Fatalf("a loaded checkpoint changed after its record was reaped and reused: %v, want %v", held.DV, want)
	}
	if got, err := s.Load(idx - 1); err != nil || !got.DV.Equal(dv) {
		t.Fatalf("live checkpoint loads as %v (err %v), want %v", got.DV, err, dv)
	}
	for i := 0; i < 4*maxSpare; i++ {
		save()
	}
	for _, i := range s.Indices() {
		if err := s.Delete(i); err != nil { // must not run off the spare arrays
			t.Fatal(err)
		}
	}
	if s.nSpareEnt > maxSpare || s.nSpareDV > maxSpare || s.nSpareEnt+s.nSpareDV == 0 {
		t.Fatalf("spare lists hold %d delta and %d full vectors, cap is %d each", s.nSpareEnt, s.nSpareDV, maxSpare)
	}
}
