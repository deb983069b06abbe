package storage

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/vclock"
)

// FuzzDecode checks the checkpoint-record parser never panics, that every
// accepted input round-trips through encode, and that its entry points
// agree: DecodeVector accepts the prefix of every record DecodeRecord
// accepts, with the same vector, and every prefix DecodeVector accepts makes
// a record DecodeRecord accepts, with the same vector, once the state bytes
// it declares follow; CheckPrefix accepts exactly what DecodeVector does;
// and the decode-into-destination forms, DecodeRecordInto and
// DecodeVectorInto, accept and reject what DecodeRecord and DecodeVector do,
// with the same content, starting from a dirty destination.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(AppendRecord(nil, Checkpoint{Process: 1, Index: 2, DV: vclock.DV{3, 4}, State: []byte("s")}))
	// A record without state is its own prefix.
	f.Add(AppendRecord(nil, Checkpoint{Process: 1, Index: 2, DV: vclock.DV{3, 4}}))
	f.Add(deltaRecord()) // the retired kind: must fail, never panic
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			// Read data as a prefix: its last word is the state length.
			sl := int64(binary.LittleEndian.Uint64(data[len(data)-8:]))
			if sl >= 0 && sl <= 1<<16 {
				dv, err := DecodeVector(data, int(sl))
				if cerr := CheckPrefix(data, int(sl)); (cerr == nil) != (err == nil) {
					t.Fatalf("CheckPrefix says %v, DecodeVector %v", cerr, err)
				}
				into, ierr := DecodeVectorInto(dirtyDV(len(data)), data, int(sl))
				if (ierr == nil) != (err == nil) || (err == nil && !into.Equal(dv)) {
					t.Fatalf("DecodeVectorInto = %v, %v; DecodeVector = %v, %v", into, ierr, dv, err)
				}
				if err == nil {
					cp, err := DecodeRecord(append(slices.Clip(data), make([]byte, sl)...))
					if err != nil {
						t.Fatalf("DecodeVector accepts a prefix whose record DecodeRecord rejects: %v", err)
					}
					if !cp.DV.Equal(dv) {
						t.Fatalf("prefix vector %v, record vector %v", dv, cp.DV)
					}
				}
			}
		}
		cp, err := DecodeRecord(data)
		in, ierr := DecodeRecordInto(dirtyDV(len(data)), data)
		if (ierr == nil) != (err == nil) {
			t.Fatalf("DecodeRecordInto says %v, DecodeRecord %v", ierr, err)
		}
		if err != nil {
			return
		}
		if in.Process != cp.Process || in.Index != cp.Index || !in.DV.Equal(cp.DV) || !bytes.Equal(in.State, cp.State) {
			t.Fatalf("DecodeRecordInto = %+v, DecodeRecord %+v", in, cp)
		}
		dv, err := DecodeVector(data[:len(data)-len(cp.State)], len(cp.State))
		if err != nil {
			t.Fatalf("DecodeVector rejects the prefix of a record DecodeRecord accepts: %v", err)
		}
		if err := CheckPrefix(data[:len(data)-len(cp.State)], len(cp.State)); err != nil {
			t.Fatalf("CheckPrefix rejects the prefix of a record DecodeRecord accepts: %v", err)
		}
		if !dv.Equal(cp.DV) {
			t.Fatalf("prefix vector %v, record vector %v", dv, cp.DV)
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

// dirtyDV is a destination vector full of garbage: shorter than, as long as
// or longer than the vector an input of size bytes can hold, by its size.
func dirtyDV(size int) vclock.DV {
	dv := make(vclock.DV, size%7, size%7+size%3)
	for i := range dv {
		dv[i] = -1 - i
	}
	return dv
}
