package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
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
//	Send        P=sender,    Msg=msg id, Aux=destination, Clock=sender's own DV entry
//	Deliver     P=receiver,  Msg=msg id, Aux=sender,      Clock=receiver's own DV entry
//	Checkpoint  P=process,   Msg=checkpoint index, Aux=1 if forced (0 basic), Clock=own DV entry
//	Rollback    P=process,   Msg=recovery-line index rolled back to
//	Collect     P=process,   Msg=collected checkpoint index
//	Crash       P=process,   Clock=own DV entry at the instant of failure
//	Restart     P=process,   Msg=checkpoint index rehydrated from
//	LinkDown    P=sender,    Aux=receiver, Msg=frames parked behind a cut
//	LinkUp      P=sender,    Aux=receiver, Msg=parked frames a heal sent on
//	FenceDrop   P=sender,    Msg=fenced frames dropped undelivered (its crash, a recovery session, a failed flush)
//	SessionPurge P=-1 (the cluster), Msg=queued frames a recovery session or Close cancelled in the sender pool, Aux=the epoch it opened
//
// A message id is unique per sender, not across the cluster: the runtime
// counts them per node, unless the cluster records its history, where a
// message is numbered by a cluster-wide tick. Either way (sender, Msg)
// names a message — a Send's (P, Msg), a Deliver's (Aux, Msg).
//
// Seq numbers the events of one recorder densely in the order they were
// recorded. An event is recorded under its process's lock on the recorder,
// and the runtime records a node's events under that node's lock and a send
// before its frame is handed off, so on a cluster Seq order is a valid
// linearization: every event follows the events it depends on.
type Event struct {
	Kind  EventKind
	T     int64 // wall clock, UnixNano
	Seq   uint64
	P     int
	Msg   int
	Aux   int
	Clock int
}

// chunkEvents sizes a shard's chunk: 64 events of 56 bytes fill the
// allocator's 3584-byte size class exactly.
const chunkEvents = 64

// Recorder is an in-memory flight recorder. Events are kept in shards, one
// per process P (P = -1, the cluster, has its own), each a list of
// fixed-size chunks behind its own mutex, and numbered by one atomic Seq
// drawn inside the shard's critical section: recording takes no lock that
// two processes share. Export merges the shards by Seq on demand.
//
// A recorder is bounded: Events returns the last size events, and Dropped
// counts the ones before them. A shard that needs a chunk reuses one whose
// events all precede that window — its own oldest, or another shard's — and
// allocates only when there is none: then every chunk but a shard's newest
// holds an event of the window. So a recorder holds at most ceil(size/c) +
// 2·s + 1 chunks of c = min(size, 64) events, s the number of shards: the
// window, a partly filled chunk and one straddling the window's start per
// shard, and the new one. Writers that race for the same reusable chunk can
// each add one past it. Once warm, recording allocates nothing.
//
// A cluster that keeps its history in the recorder claims it (Attach): a
// claimed recorder is unbounded and keeps every event for the cluster's
// life.
type Recorder struct {
	size    uint64                   // the window Events returns, on a bounded recorder
	chunk   int                      // events per chunk
	t0      time.Time                // stamps T: its wall clock plus the monotonic time since
	shards  atomic.Pointer[[]*shard] // shards[p+1] holds process p's events
	keepAll atomic.Bool              // claimed: no window, nothing evicted

	// next, which every event writes, has a cache line of its own: the
	// fields every event reads stay in the readers' caches.
	_    [64]byte
	next atomic.Uint64 // events ever recorded; also the next Seq
	_    [56]byte

	mu       sync.Mutex // guards growing shards, and attached
	attached bool       // some cluster records into the recorder
}

// shard is one process's events: its chunks, oldest first, the newest
// (tail) filled up to fill. It ends in a cache line of padding, so two
// processes recording at once never write to one line.
type shard struct {
	mu      sync.Mutex
	chunks  [][]Event
	tail    []Event
	fill    int
	evicted uint64 // 1 + Seq of the newest event evicted, or 0
	_       [64]byte
}

// DefaultRecorderSize is the window NewRecorder(0) gives: enough for the
// full event stream of any test-sized run, ~3.5 MB when full.
const DefaultRecorderSize = 1 << 16

// NewRecorder returns a recorder keeping the last size events (size <= 0
// selects DefaultRecorderSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	r := &Recorder{size: uint64(size), chunk: min(size, chunkEvents), t0: time.Now()}
	r.shards.Store(&[]*shard{{}})
	return r
}

// Attach binds the recorder to a cluster. A cluster that keeps its history
// in the recorder claims it: from then on the recorder keeps every event,
// and no other cluster may attach to it. A recorder already attached, or
// already holding events, cannot be claimed — its events would mix runs.
// Nil-safe.
func (r *Recorder) Attach(claim bool) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keepAll.Load() || claim && (r.attached || r.next.Load() > 0) {
		return errors.New("obs: a recorded cluster's recorder is its history and records no other run; attach one of its own")
	}
	r.attached = true
	if claim {
		r.keepAll.Store(true)
	}
	return nil
}

// Record appends one event, stamping T (if zero) and Seq. Nil-safe.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.T == 0 {
		// One monotonic clock read, not time.Now's two.
		ev.T = r.t0.UnixNano() + int64(time.Since(r.t0))
	}
	s := r.shardOf(ev.P)
	s.mu.Lock()
	if s.fill == len(s.tail) {
		r.newChunk(s)
	}
	ev.Seq = r.next.Add(1) - 1
	s.tail[s.fill] = ev
	s.fill++
	s.mu.Unlock()
}

// shardOf returns process p's shard, creating the table's missing ones. A
// P outside [-1, 4096) shares the P = -1 shard.
func (r *Recorder) shardOf(p int) *shard {
	if p < -1 || p >= 1<<12 {
		p = -1
	}
	if tbl := *r.shards.Load(); p+1 < len(tbl) {
		return tbl[p+1]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tbl := *r.shards.Load()
	if p+1 < len(tbl) {
		return tbl[p+1]
	}
	grown := make([]*shard, p+2)
	copy(grown, tbl)
	for i := len(tbl); i < len(grown); i++ {
		grown[i] = &shard{}
	}
	r.shards.Store(&grown)
	return grown[p+1]
}

// newChunk gives the locked shard s an empty tail: a chunk whose events all
// precede the window, or a new one.
func (r *Recorder) newChunk(s *shard) {
	var c []Event
	if hi := r.next.Load(); !r.keepAll.Load() && hi > r.size {
		c = r.reuse(s, hi-r.size)
	}
	if c == nil {
		c = make([]Event, r.chunk)
	}
	s.chunks = append(s.chunks, c)
	s.tail, s.fill = c, 0
}

// reuse takes a chunk whose events all precede limit: s's own oldest, else
// the oldest of another shard that keeps its tail. Shards another writer
// holds are skipped, never waited for: s is locked.
func (r *Recorder) reuse(s *shard, limit uint64) []Event {
	if c := s.evict(limit, 0); c != nil {
		return c
	}
	for _, o := range *r.shards.Load() {
		if o == s || !o.mu.TryLock() {
			continue
		}
		c := o.evict(limit, 1)
		o.mu.Unlock()
		if c != nil {
			return c
		}
	}
	return nil
}

// evict removes and returns the shard's oldest chunk if it holds more than
// keep chunks and every event in it is older than limit. The oldest chunk
// must be full: the shard's tail is, or keep is 1.
func (s *shard) evict(limit uint64, keep int) []Event {
	if len(s.chunks) <= keep || s.chunks[0][len(s.chunks[0])-1].Seq >= limit {
		return nil
	}
	c := s.chunks[0]
	s.evicted = c[len(c)-1].Seq + 1
	// Shifting down keeps the slice's capacity: the append that follows
	// allocates nothing.
	s.chunks = s.chunks[:copy(s.chunks, s.chunks[1:])]
	return c
}

// window returns the Seq range [lo, hi) a bounded recorder exports when
// hi events have been recorded.
func (r *Recorder) window(hi uint64) (lo uint64) {
	if !r.keepAll.Load() && hi > r.size {
		lo = hi - r.size
	}
	return lo
}

// Len reports how many events are currently held (≤ size on a bounded
// recorder). Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	hi := r.next.Load()
	return int(hi - r.window(hi))
}

// Dropped reports how many events the recorder has evicted. Nil-safe.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.window(r.next.Load())
}

// Events returns the retained events oldest-first, as a copy: a gap-free
// run of Seq ending at the newest event recorded before the call. Every
// Seq below the counter read first is already written, because each is
// drawn inside its shard's critical section; while writers run, the run
// starts past the newest event any shard has evicted meanwhile.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	hi := r.next.Load()
	base := r.window(hi)
	out := make([]Event, hi-base)
	lo := base
	for _, s := range *r.shards.Load() {
		s.mu.Lock()
		lo = max(lo, s.evicted)
		for i, c := range s.chunks {
			if i == len(s.chunks)-1 {
				c = c[:s.fill]
			}
			for _, ev := range c {
				if ev.Seq >= base && ev.Seq < hi {
					out[ev.Seq-base] = ev
				}
			}
		}
		s.mu.Unlock()
	}
	return out[min(lo, hi)-base:]
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
