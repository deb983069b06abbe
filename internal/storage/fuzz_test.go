package storage

import (
	"bytes"
	"testing"

	"repro/internal/vclock"
)

// FuzzDecode checks the checkpoint-record parser never panics and that every
// accepted input round-trips through encode.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(AppendRecord(nil, Checkpoint{Process: 1, Index: 2, DV: vclock.DV{3, 4}, State: []byte("s")}))
	f.Add(encodeDelta(nil, Checkpoint{Process: 1, Index: 3, State: []byte("s")}, 2, vclock.Delta{{K: 0, V: 7}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		var re Record
		if rec.Delta {
			re, err = DecodeRecord(encodeDelta(nil, rec.Checkpoint, rec.Base, rec.Entries))
		} else {
			re, err = DecodeRecord(encodeFull(nil, rec.Checkpoint))
		}
		if err != nil {
			t.Fatalf("re-decode of accepted checkpoint failed: %v", err)
		}
		if re.Process != rec.Process || re.Index != rec.Index || !re.DV.Equal(rec.DV) ||
			!bytes.Equal(re.State, rec.State) || re.Delta != rec.Delta || re.Base != rec.Base ||
			len(re.Entries) != len(rec.Entries) {
			t.Fatalf("round trip changed the checkpoint: %+v vs %+v", rec, re)
		}
	})
}
