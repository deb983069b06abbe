package storage

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/vclock"
)

// deltaRecord is a record of the retired kind 1 as earlier writers laid it
// out: magic, process, index, kind, base index, entry count, (k, v) pairs,
// state length, state.
func deltaRecord() []byte {
	var rec []byte
	for _, v := range []int64{
		ckptMagicV2,
		0, 1, // process, index
		1,    // kind: delta
		0, 1, // base index, entry count
		0, 1, // the entry
		0, // state length
	} {
		rec = binary.LittleEndian.AppendUint64(rec, uint64(v))
	}
	return rec
}

// TestDeltaRecordIsCorrupt pins the retirement of the delta record: a
// record whose kind word is 1 fails with ErrCorrupt, so a log holding one
// refuses to open (logstore.TestDeltaRecordFailsOpen) instead of loading a
// vector it cannot rebuild.
func TestDeltaRecordIsCorrupt(t *testing.T) {
	if _, err := DecodeRecord(deltaRecord()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode of a delta record: %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsTruncatedRecord models a disk fault on acknowledged
// bytes: every proper prefix of a record must fail with ErrCorrupt, never
// decode to a shorter checkpoint.
func TestDecodeRejectsTruncatedRecord(t *testing.T) {
	rec := AppendRecord(nil, Checkpoint{Process: 1, Index: 3, DV: vclock.DV{2, 4}, State: []byte("state bytes")})
	if _, err := DecodeRecord(rec); err != nil {
		t.Fatalf("record does not decode whole: %v", err)
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, err := DecodeRecord(rec[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record cut at %d of %d: %v, want ErrCorrupt", cut, len(rec), err)
		}
	}
}

// TestV1RecordIsCorrupt pins the retirement of the v1 format (magic ending
// in 1, no kind word): nothing in the tree writes it, and
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
