package trace_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ccp"
	"repro/internal/obs"
	"repro/internal/trace"
)

func TestObsFromEvents(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.EvSend, P: 0, Msg: 41, Aux: 1},
		{Kind: obs.EvCheckpoint, P: 1, Msg: 1},
		{Kind: obs.EvDeliver, P: 1, Msg: 41, Aux: 0},
		{Kind: obs.EvSend, P: 1, Msg: 45, Aux: 0},
		{Kind: obs.EvCrash, P: 0},    // no space-time representation
		{Kind: obs.EvRollback, P: 0}, // no space-time representation
		{Kind: obs.EvDeliver, P: 0, Msg: 45, Aux: 1},
		{Kind: obs.EvDeliver, P: 0, Msg: 7, Aux: 1}, // send evicted from the ring
	}
	s := trace.FromEvents(2, evs)
	if err := s.Validate(); err != nil {
		t.Fatalf("converted script invalid: %v", err)
	}
	want := []ccp.Op{
		{Kind: ccp.OpSend, P: 0, Msg: 0},
		{Kind: ccp.OpCheckpoint, P: 1},
		{Kind: ccp.OpRecv, P: 1, Msg: 0},
		{Kind: ccp.OpSend, P: 1, Msg: 1},
		{Kind: ccp.OpRecv, P: 0, Msg: 1},
	}
	if len(s.Ops) != len(want) {
		t.Fatalf("got %d ops %v, want %d", len(s.Ops), s.Ops, len(want))
	}
	for i, op := range want {
		if s.Ops[i] != op {
			t.Errorf("op %d: got %+v, want %+v", i, s.Ops[i], op)
		}
	}
	// The renumbered script renders.
	out := trace.Render(s)
	for _, frag := range []string{"s0>", ">r0", "s1>", ">r1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("diagram missing %q:\n%s", frag, out)
		}
	}
}

// TestFromEventsJoinsOnSenderAndID pins the join key: a message id is unique
// per sender only, so two senders' message 5 are two messages. Keyed by the
// id alone, p1's delivery of p0's message 5 would be joined to p2's send.
func TestFromEventsJoinsOnSenderAndID(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.EvSend, P: 0, Msg: 5, Aux: 1},
		{Kind: obs.EvSend, P: 2, Msg: 5, Aux: 1},
		{Kind: obs.EvDeliver, P: 1, Msg: 5, Aux: 0},
		{Kind: obs.EvDeliver, P: 1, Msg: 5, Aux: 2},
	}
	s := trace.FromEvents(3, evs)
	if err := s.Validate(); err != nil {
		t.Fatalf("converted script invalid: %v", err)
	}
	want := []ccp.Op{
		{Kind: ccp.OpSend, P: 0, Msg: 0},
		{Kind: ccp.OpSend, P: 2, Msg: 1},
		{Kind: ccp.OpRecv, P: 1, Msg: 0},
		{Kind: ccp.OpRecv, P: 1, Msg: 1},
	}
	if !slices.Equal(s.Ops, want) {
		t.Fatalf("got %v, want %v", s.Ops, want)
	}
}
