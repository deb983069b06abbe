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
	f.Add(deltaRecord()) // the retired kind: must fail, never panic
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeRecord(data)
		if err != nil {
			return
		}
		re, err := DecodeRecord(AppendRecord(nil, cp))
		if err != nil {
			t.Fatalf("re-decode of accepted checkpoint failed: %v", err)
		}
		if re.Process != cp.Process || re.Index != cp.Index || !re.DV.Equal(cp.DV) || !bytes.Equal(re.State, cp.State) {
			t.Fatalf("round trip changed the checkpoint: %+v vs %+v", cp, re)
		}
	})
}
