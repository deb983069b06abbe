package logstore

// The delta-chain cases, pinned in absolute terms on the one store that
// writes chains. TestStoreDifferential holds the same cases to MemStore op
// by op, except the re-save a chain still refuses, which is the log's alone.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// record reports how checkpoint idx is held: as a delta or a full record,
// and its body size in bytes.
func record(s *LogStore, idx int) (delta bool, size int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ri := s.recs[idx]
	return ri.delta, ri.size
}

// TestDeltaChainRoundTrip drives the store through a long save sequence with
// small per-save changes and interior collections and checks (a) delta
// records actually appear, one full record every fullEvery, and encode much
// smaller than full ones, (b) every live checkpoint loads back bit-for-bit,
// before and after the deletes and after a reopen replays the chains.
func TestDeltaChainRoundTrip(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	rng := rand.New(rand.NewSource(7))
	dv := vclock.New(n)
	want := make([]storage.Checkpoint, 0, 3*fullEvery)
	var fullBytes, deltaBytes, deltas int
	for i := 0; i < 3*fullEvery; i++ {
		dv[0] = i
		dv[rng.Intn(n)]++
		cp := storage.Checkpoint{Process: 0, Index: i, DV: dv.Clone(), State: []byte("st")}
		if err := s.Save(cp); err != nil {
			t.Fatal(err)
		}
		want = append(want, cp)
		if delta, size := record(s, i); delta {
			deltas++
			deltaBytes += size
		} else {
			fullBytes += size
		}
	}
	wantDeltas := len(want) - (len(want)+fullEvery-1)/fullEvery
	if deltas != wantDeltas {
		t.Fatalf("kept %d delta records, want %d (full every %d)", deltas, wantDeltas, fullEvery)
	}
	if avgD, avgF := deltaBytes/deltas, fullBytes/(len(want)-deltas); avgD*4 > avgF {
		t.Fatalf("delta records not small: avg delta %dB vs avg full %dB at n=%d", avgD, avgF, n)
	}
	check := func(s *LogStore) {
		t.Helper()
		for _, idx := range s.Indices() {
			got, err := s.Load(idx)
			if err != nil {
				t.Fatalf("load %d: %v", idx, err)
			}
			if cp := want[idx]; !got.DV.Equal(cp.DV) || !bytes.Equal(got.State, cp.State) {
				t.Fatalf("checkpoint %d changed through the chain: got %v want %v", idx, got.DV, cp.DV)
			}
		}
	}
	check(s)
	// Interior collections — chain anchors and mid-chain deltas alike — must
	// leave every survivor resolvable.
	for idx := 0; idx < len(want); idx += 3 {
		if err := s.Delete(idx); err != nil {
			t.Fatal(err)
		}
	}
	if got, wantLive := len(s.Indices()), len(want)-(len(want)+2)/3; got != wantLive {
		t.Fatalf("%d live after interior deletes, want %d", got, wantLive)
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(openTest(t, dir, Options{}))
}

// TestDeleteTombstonesChainBases checks the chain invariant under
// collection: deleting a record that a delta depends on keeps it as the
// chain's base only — dependents stay loadable, deleted records are gone
// from the interface — and draining the chain dissolves every link and
// reaps every dead base.
func TestDeleteTombstonesChainBases(t *testing.T) {
	reg := obs.NewRegistry()
	s := openTest(t, t.TempDir(), Options{})
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
	dv := vclock.New(8)
	for i := 0; i < 4; i++ {
		dv[0] = i
		if err := s.Save(storage.Checkpoint{Process: 0, Index: i, DV: dv, State: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Records 1..3 are deltas chaining back to full record 0. Deleting 0
	// and 1 must keep their bytes (record 2 still resolves through both).
	for _, idx := range []int{0, 1} {
		if err := s.Delete(idx); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(idx); err == nil {
			t.Fatalf("deleted checkpoint %d still loads", idx)
		}
		if err := s.Delete(idx); err == nil {
			t.Fatalf("double delete of chain base %d accepted", idx)
		}
	}
	if got := s.Indices(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Indices = %v, want [2 3]", got)
	}
	for _, idx := range []int{2, 3} {
		if cp, err := s.Load(idx); err != nil || cp.DV[0] != idx {
			t.Fatalf("record %d unreadable through dead bases: %v %v", idx, cp, err)
		}
	}
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	links := len(s.child)
	s.mu.Unlock()
	if reaps := reg.Counter(obs.StorageReaps).Value(); links != 0 || reaps != 3 {
		t.Fatalf("chain drained but %d links remain and %d of 3 dead bases were reaped", links, reaps)
	}
}

// TestSaveRejectsTombstonedIndex pins the duplicate-save rule across the
// dead state: an index whose record still anchors a live chain is occupied,
// for Save, until the chain drains; the rollback pattern — delete the top
// index, save it again — is accepted.
func TestSaveRejectsTombstonedIndex(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	dv := vclock.New(4)
	for i := 0; i < 3; i++ {
		dv[0] = i
		if err := s.Save(storage.Checkpoint{Process: 0, Index: i, DV: dv, State: []byte("s")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(0); err != nil { // dead, not gone: 1 chains through it
		t.Fatal(err)
	}
	if err := s.Save(storage.Checkpoint{Process: 0, Index: 0, DV: dv, State: []byte("x")}); err == nil {
		t.Fatal("save onto a dead chain base must fail, not shadow it")
	}
	// Rollback: the top index is deleted and taken again with new content.
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	dv[1] = 9
	if err := s.Save(storage.Checkpoint{Process: 0, Index: 2, DV: dv, State: []byte("again")}); err != nil {
		t.Fatalf("re-save of the rolled-back top index failed: %v", err)
	}
	if cp, err := s.Load(2); err != nil || cp.DV[1] != 9 || string(cp.State) != "again" {
		t.Fatalf("re-saved checkpoint 2 = %+v, %v", cp, err)
	}
	// Draining the chain frees index 0.
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(storage.Checkpoint{Process: 0, Index: 0, DV: dv, State: []byte("x")}); err != nil {
		t.Fatalf("save onto a drained index failed: %v", err)
	}
}
