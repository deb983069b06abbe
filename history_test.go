package rdt_test

import (
	"testing"

	"repro/internal/ccp"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// TestHistoryCopyCanBeExtended: a script obtained as a copy — either
// engine's History(), or a prefix assembled from one's Ops — has a cold
// send counter; appending a message to it must still number the send after
// the ones it holds, so the extended script validates.
func TestHistoryCopyCanBeExtended(t *testing.T) {
	const n = 3
	stream := xstream(n, 60, 7)
	live := func() ccp.Script {
		c, err := runtime.NewCluster(runtime.Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		xdrive(t, c, stream)
		return c.History()
	}
	simulated := func() ccp.Script {
		r, err := sim.NewRunner(sim.Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(xscript(n, stream)); err != nil {
			t.Fatal(err)
		}
		return r.History()
	}
	for _, tc := range []struct {
		name string
		hist func() ccp.Script
	}{
		{"runtime.History", live},
		{"sim.History", simulated},
		{"prefix literal", func() ccp.Script {
			h := simulated()
			return ccp.Script{N: n, Ops: h.Ops[: len(h.Ops)/2 : len(h.Ops)/2]}
		}},
		{"empty", func() ccp.Script { return ccp.Script{N: n} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.hist()
			sends := 0
			for _, op := range h.Ops {
				if op.Kind == ccp.OpSend {
					sends++
				}
			}
			if m := h.Message(0, 1); m != sends {
				t.Fatalf("message appended to a copy holding %d sends got number %d", sends, m)
			}
			if m := h.Message(2, 0); m != sends+1 {
				t.Fatalf("second appended message got number %d, want %d", m, sends+1)
			}
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
