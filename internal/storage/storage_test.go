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
		got, err := DecodeCheckpoint(EncodeCheckpoint(cp))
		return err == nil && got.Process == cp.Process && got.Index == cp.Index &&
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
