package trace

import (
	"repro/internal/ccp"
	"repro/internal/obs"
)

// FromEvents converts a flight-recorder capture (oldest first, as returned
// by obs.Recorder.Events) into a script Render can draw. A message is named
// by its sender and id — a send's (P, Msg), a delivery's (Aux, Msg) — since
// an id is unique only per sender. Sends are renumbered to the contiguous
// message ids Validate requires; deliveries whose send fell off the ring,
// duplicate deliveries and kinds with no space-time representation
// (collect, crash, restart, rollback) are skipped, so a wrapped ring still
// yields a valid — if truncated — diagram.
func FromEvents(n int, evs []obs.Event) ccp.Script {
	s := ccp.Script{N: n}
	msgMap := make(map[[2]int]int) // (sender, recorder msg id) -> script msg id
	seen := make(map[int]bool)     // script msg ids already delivered
	for _, ev := range evs {
		if ev.P < 0 || ev.P >= n {
			continue
		}
		switch ev.Kind {
		case obs.EvSend:
			msgMap[[2]int{ev.P, ev.Msg}] = s.Send(ev.P)
		case obs.EvDeliver:
			m, ok := msgMap[[2]int{ev.Aux, ev.Msg}]
			if !ok || seen[m] {
				continue
			}
			seen[m] = true
			s.Recv(ev.P, m)
		case obs.EvCheckpoint:
			s.Checkpoint(ev.P)
		}
	}
	return s
}
