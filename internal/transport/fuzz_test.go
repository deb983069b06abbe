package transport

import (
	"reflect"
	"testing"

	"repro/internal/vclock"
)

// TestValidateRejectsDamagedFrames pins the semantic check the receive
// path runs after decode: structurally sound frames whose contents do not
// fit the cluster must be dropped before they can index a kernel's
// dependency vector out of range.
func TestValidateRejectsDamagedFrames(t *testing.T) {
	const n = 4
	good := Message{From: 0, To: 1, DV: []int{1, 2, 3, 4}}
	if err := good.Validate(n); err != nil {
		t.Fatalf("valid full frame rejected: %v", err)
	}
	goodSparse := Message{From: 0, To: 1, Sparse: true, Entries: vclock.Delta{{K: 3, V: 9}}}
	if err := goodSparse.Validate(n); err != nil {
		t.Fatalf("valid sparse frame rejected: %v", err)
	}
	bad := []Message{
		{From: -1, To: 1, DV: make([]int, n)},                            // endpoint out of range
		{From: 0, To: n, DV: make([]int, n)},                             // endpoint out of range
		{From: 0, To: 1, DV: make([]int, n-1)},                           // wrong-size vector
		{From: 0, To: 1, Sparse: true, Entries: vclock.Delta{{K: n}}},    // entry key outside cluster
		{From: 0, To: 1, Sparse: true, Entries: vclock.Delta{{K: 1000}}}, // decode accepts, cluster must not
	}
	for i, m := range bad {
		if err := m.Validate(n); err == nil {
			t.Errorf("damaged frame %d passed validation: %+v", i, m)
		}
	}
}

// FuzzDecode checks the wire-frame parser never panics and every accepted
// frame round-trips.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a frame"))
	f.Add(Encode(Message{From: 1, To: 2, Msg: 3, Epoch: 4, Index: 5, DV: []int{6, 7}}))
	f.Add(Encode(Message{From: 1, To: 2, Msg: 3, Sparse: true,
		Entries: vclock.Delta{{K: 0, V: 9}, {K: 5, V: 2}}, Payload: []byte("p")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decode(data)
		if err != nil {
			return
		}
		re, err := decode(appendEncode(nil, &m))
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if m.DV == nil {
			m.DV = []int{}
		}
		if re.DV == nil {
			re.DV = []int{}
		}
		if m.Entries == nil {
			m.Entries = vclock.Delta{}
		}
		if re.Entries == nil {
			re.Entries = vclock.Delta{}
		}
		if m.Payload == nil {
			m.Payload = []byte{}
		}
		if re.Payload == nil {
			re.Payload = []byte{}
		}
		if !reflect.DeepEqual(m, re) {
			t.Fatalf("round trip changed the frame: %+v vs %+v", m, re)
		}
	})
}
