package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// The delta-chain cases below pin the Store contract on MemStore, the
// oracle; the log store is held to the same behaviour differentially
// (logstore.TestStoreDifferential drives the same scenarios through both).

// TestDeltaChainRoundTrip drives a store through a long save sequence with
// small per-save changes and interior collections and checks (a) delta
// records actually appear, one full record every fullEvery, and encode much
// smaller than full ones, (b) every live checkpoint loads back bit-for-bit.
func TestDeltaChainRoundTrip(t *testing.T) {
	const n = 64
	s := NewMemStore()
	rng := rand.New(rand.NewSource(7))
	dv := vclock.New(n)
	want := make([]Checkpoint, 0, 3*fullEvery)
	var fullBytes, deltaBytes, deltas int
	for i := 0; i < 3*fullEvery; i++ {
		prev := dv.Clone()
		dv[0] = i
		dv[rng.Intn(n)]++
		cp := Checkpoint{Process: 0, Index: i, DV: dv.Clone(), State: []byte("st")}
		if err := s.Save(cp); err != nil {
			t.Fatal(err)
		}
		want = append(want, cp)
		if s.byIdx[i].delta {
			deltas++
			deltaBytes += len(encodeDelta(nil, cp, i-1, vclock.DiffAppend(prev, dv, nil)))
		} else {
			fullBytes += len(encodeFull(nil, cp))
		}
	}
	wantDeltas := len(want) - (len(want)+fullEvery-1)/fullEvery
	if deltas != wantDeltas {
		t.Fatalf("kept %d delta records, want %d (full every %d)", deltas, wantDeltas, fullEvery)
	}
	if avgD, avgF := deltaBytes/deltas, fullBytes/(len(want)-deltas); avgD*4 > avgF {
		t.Fatalf("delta records not small: avg delta %dB vs avg full %dB at n=%d", avgD, avgF, n)
	}
	check := func() {
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
	check()
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
	check()
}

// TestDeleteTombstonesChainBases checks the chain invariant under
// collection: deleting a record that a delta depends on keeps it as the
// chain's base only — dependents stay loadable, deleted records are gone
// from the interface — and draining the chain reaps every dead record.
func TestDeleteTombstonesChainBases(t *testing.T) {
	s := NewMemStore()
	dv := vclock.New(8)
	for i := 0; i < 4; i++ {
		dv[0] = i
		if err := s.Save(Checkpoint{Process: 0, Index: i, DV: dv, State: []byte{byte(i)}}); err != nil {
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
	if len(s.byIdx) != 0 || len(s.child) != 0 {
		t.Fatalf("chain drained but %d records and %d links remain", len(s.byIdx), len(s.child))
	}
}

// TestSaveRejectsTombstonedIndex pins the duplicate-save rule across the
// dead state: an index whose record still anchors a live chain is occupied,
// for Save, until the chain drains; the rollback pattern — delete the top
// index, save it again — is accepted.
func TestSaveRejectsTombstonedIndex(t *testing.T) {
	s := NewMemStore()
	dv := vclock.New(4)
	for i := 0; i < 3; i++ {
		dv[0] = i
		if err := s.Save(Checkpoint{Process: 0, Index: i, DV: dv, State: []byte("s")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(0); err != nil { // dead, not gone: 1 chains through it
		t.Fatal(err)
	}
	if err := s.Save(Checkpoint{Process: 0, Index: 0, DV: dv, State: []byte("x")}); err == nil {
		t.Fatal("save onto a dead chain base must fail, not shadow it")
	}
	// Rollback: the top index is deleted and taken again with new content.
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	dv[1] = 9
	if err := s.Save(Checkpoint{Process: 0, Index: 2, DV: dv, State: []byte("again")}); err != nil {
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
	if err := s.Save(Checkpoint{Process: 0, Index: 0, DV: dv, State: []byte("x")}); err != nil {
		t.Fatalf("save onto a reaped index failed: %v", err)
	}
}

// TestCorruptDeltaFailsLoudly damages delta records in the ways the format
// must catch — truncation, a record without its chain, entries out of
// range or out of order — and checks each fails with an error instead of
// yielding a wrong vector.
func TestCorruptDeltaFailsLoudly(t *testing.T) {
	good := encodeDelta(nil, Checkpoint{Process: 0, Index: 1, State: []byte("s")},
		0, vclock.Delta{{K: 0, V: 1}})

	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeRecord(good[:len(good)-9]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode of a truncated delta record: %v, want ErrCorrupt", err)
		}
	})

	t.Run("missing-base", func(t *testing.T) {
		// Without the chain it patches, a delta record is not a checkpoint:
		// it decodes marked as a delta, with no vector to mistake for one.
		rec, err := DecodeRecord(good)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Delta || rec.DV != nil {
			t.Fatalf("a delta record decoded standalone: delta=%v DV=%v", rec.Delta, rec.DV)
		}
	})

	t.Run("entries-out-of-range", func(t *testing.T) {
		bad := encodeDelta(nil, Checkpoint{Process: 0, Index: 1, State: []byte("s")},
			0, vclock.Delta{{K: 99, V: 1}})
		rec, err := DecodeRecord(bad)
		if err != nil {
			t.Fatal(err)
		}
		// What every store's Load does with the record's entries.
		if err := rec.Entries.Patch(vclock.New(4)); err == nil {
			t.Fatal("patched an entry outside the vector")
		}
	})

	t.Run("unsorted-entries", func(t *testing.T) {
		bad := encodeDelta(nil, Checkpoint{Process: 0, Index: 1},
			0, vclock.Delta{{K: 2, V: 1}, {K: 1, V: 1}})
		if _, err := DecodeRecord(bad); err == nil {
			t.Fatal("decode accepted unsorted delta entries")
		}
	})
}

// TestDecodeRejectsTruncatedRecord models a disk fault on acknowledged
// bytes: every proper prefix of a record, full or delta, must fail with
// ErrCorrupt, never decode to a shorter checkpoint.
func TestDecodeRejectsTruncatedRecord(t *testing.T) {
	cp := Checkpoint{Process: 1, Index: 3, DV: vclock.DV{2, 4}, State: []byte("state bytes")}
	for name, rec := range map[string][]byte{
		"full":  encodeFull(nil, cp),
		"delta": encodeDelta(nil, cp, 2, vclock.Delta{{K: 1, V: 4}}),
	} {
		if _, err := DecodeRecord(rec); err != nil {
			t.Fatalf("%s record does not decode whole: %v", name, err)
		}
		for cut := 0; cut < len(rec); cut++ {
			if _, err := DecodeRecord(rec[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s record cut at %d of %d: %v, want ErrCorrupt", name, cut, len(rec), err)
			}
		}
	}
}

// TestV1RecordIsCorrupt pins the retirement of the v1 format (magic ending
// in 1, full vector only, no kind word): nothing in the tree writes it, and
// a reader that meets it refuses like any other bad header.
func TestV1RecordIsCorrupt(t *testing.T) {
	var v1 []byte
	for _, v := range []int64{
		0x5244544C47431, // v1 magic
		0, 5,            // process, index
		1, 7, // vector length, its entry
		0, // state length
	} {
		v1 = binary.LittleEndian.AppendUint64(v1, uint64(v))
	}
	if _, err := DecodeRecord(v1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode of a v1 record: %v, want ErrCorrupt", err)
	}
}
