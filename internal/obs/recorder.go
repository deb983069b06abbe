package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventKind enumerates the protocol events a flight recorder captures.
type EventKind uint8

const (
	EvSend EventKind = iota
	EvDeliver
	EvCheckpoint
	EvRollback
	EvCollect
	EvCrash
	EvRestart
	EvLinkDown
	EvLinkUp
	EvFenceDrop
	EvSessionPurge
	evKinds
)

// kindNames doubles as the OTLP span name for each kind.
var kindNames = [evKinds]string{
	EvSend:         "send",
	EvDeliver:      "deliver",
	EvCheckpoint:   "checkpoint",
	EvRollback:     "rollback",
	EvCollect:      "collect",
	EvCrash:        "crash",
	EvRestart:      "restart",
	EvLinkDown:     "link_down",
	EvLinkUp:       "link_up",
	EvFenceDrop:    "fence_drop",
	EvSessionPurge: "session_purge",
}

// String names the kind ("send", "deliver", ...).
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded protocol event. It is a fixed-size value — no
// slices, no strings — so recording never allocates. Field meaning varies
// by kind:
//
//	Send        P=sender,    Msg=global msg id, Aux=destination, Clock=sender's own DV entry
//	Deliver     P=receiver,  Msg=global msg id, Aux=sender,      Clock=receiver's own DV entry
//	Checkpoint  P=process,   Msg=checkpoint index, Aux=1 if forced (0 basic), Clock=own DV entry
//	Rollback    P=process,   Msg=recovery-line index rolled back to
//	Collect     P=process,   Msg=collected checkpoint index
//	Crash       P=process,   Clock=own DV entry at the instant of failure
//	Restart     P=process,   Msg=checkpoint index rehydrated from
//	LinkDown    P=sender,    Aux=receiver, Msg=frames parked for retransmit
//	LinkUp      P=sender,    Aux=receiver, Msg=frames resent on reconnect
//	FenceDrop   P=sender,    Msg=fenced frames dropped undelivered (its crash, a recovery session, a failed flush)
//	SessionPurge P=-1 (the cluster), Msg=queued frames a recovery session or Close cancelled in the sender pool, Aux=the epoch it opened
type Event struct {
	Kind  EventKind
	T     int64 // wall clock, UnixNano
	Seq   uint64
	P     int
	Msg   int
	Aux   int
	Clock int
}

// Recorder is a bounded in-memory flight recorder: a ring of the last
// cap events, recorded under a mutex (recording is a few stores — the
// mutex is uncontended next to the node locks already held at every call
// site), and exported in order on demand. When the ring wraps, the oldest
// events are dropped and counted; Events/WriteJSONL see a gap-free suffix
// of the run.
type Recorder struct {
	mu      sync.Mutex
	ring    []Event
	next    uint64 // total events ever recorded; also the next Seq
	dropped uint64
}

// DefaultRecorderSize is the ring capacity NewRecorder(0) gives: enough
// for the full event stream of any test-sized run, ~6MB at the limit.
const DefaultRecorderSize = 1 << 16

// NewRecorder returns a recorder keeping the last size events (size <= 0
// selects DefaultRecorderSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &Recorder{ring: make([]Event, size)}
}

// Record appends one event, stamping T (if zero) and Seq. Nil-safe.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.T == 0 {
		ev.T = time.Now().UnixNano()
	}
	r.mu.Lock()
	ev.Seq = r.next
	r.ring[r.next%uint64(len(r.ring))] = ev
	r.next++
	if r.next > uint64(len(r.ring)) {
		r.dropped = r.next - uint64(len(r.ring))
	}
	r.mu.Unlock()
}

// Len reports how many events are currently held (≤ ring size). Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.ring)) {
		return int(r.next)
	}
	return len(r.ring)
}

// Dropped reports how many events the ring has evicted. Nil-safe.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events oldest-first, as a copy.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	if r.next <= n {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, n)
	at := r.next % n // oldest retained slot
	out = append(out, r.ring[at:]...)
	out = append(out, r.ring[:at]...)
	return out
}

// WriteJSONL exports the retained events as JSON Lines, one OTLP-ish span
// per line:
//
//	{"name":"send","timeUnixNano":1712345,"attributes":{"seq":9,"process":0,"msg":3,"aux":1,"clock":4}}
//
// The shape is hand-formatted (every field is an integer or a known-safe
// name string, nothing needs escaping) so export does not depend on
// encoding/json's reflection.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintf(bw,
			`{"name":%q,"timeUnixNano":%d,"attributes":{"seq":%d,"process":%d,"msg":%d,"aux":%d,"clock":%d}}`+"\n",
			ev.Kind.String(), ev.T, ev.Seq, ev.P, ev.Msg, ev.Aux, ev.Clock); err != nil {
			return err
		}
	}
	return bw.Flush()
}
