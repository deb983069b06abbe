package storage

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/vclock"
)

// The record format, full and delta. The delta-chain cases — which records
// the log store writes as deltas, what a delete keeps as a chain base, which
// index a chain still reserves — are the log store's alone and are pinned in
// internal/storage/logstore.

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
		// What the log store's Load does with the record's entries.
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
