package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// The traced run records spans from the benchmark's own files only: timing
// wrappers handed to the runtime through its existing seams (Config.NewStore,
// Config.LocalGC, Config.Protocol, Config.OnDeliver) plus the benchmark's own
// calls into Node.SendPayload / Node.Checkpoint / Cluster.Restart. Nothing
// inside the program is touched, so an untraced run executes exactly the code
// a user runs.
//
// Every wrapped call of node i happens under node i's lock (the kernel calls
// its store, collector and protocol only with that lock held; a recovery
// session holds all of them), so the per-node state below needs no lock of
// its own. Only the shared span list is mutex-guarded, and only sampled
// spans reach it.

// Span kinds; the name is what the trace file and the self-time table show.
const (
	spMsg = iota // SendPayload call → OnDeliver returns, one sampled message
	spSendCall
	spDeliver // forced-checkpoint decision → OnDeliver returns, at the receiver
	spForcedCheck
	spCkpt // a basic Node.Checkpoint() call
	spSave
	spDelete
	spLoad
	spIndices
	spOnCheckpoint
	spOnNewInfo
	spRollback
	spReleaseStale
	spRecover // Cluster.Crash → Cluster.Restart returns
	spKinds
)

var spanNames = [spKinds]string{
	"msg", "runtime.send_call", "node.deliver", "protocol.forced_check",
	"runtime.checkpoint", "storage.save", "storage.delete", "storage.load", "storage.indices",
	"core.on_checkpoint", "core.on_newinfo", "core.rollback", "core.release_stale",
	"runtime.recover",
}

// span is one timed interval. Parent is the index of the enclosing span in
// the tracer's list plus one (0 = root); ID is the message id for message
// spans and the checkpoint index or recovery ordinal otherwise.
type span struct {
	Kind   uint8
	Node   int16
	Parent int32
	Start  int64 // ns since the tracer's base
	End    int64
	ID     int64
}

const (
	maxSpans      = 1 << 19 // 16 MB; spans past this are counted, not kept
	msgSampleMask = 63      // one message in 64 is traced (by sequence number, so both ends agree)
	ckptSample    = 8       // one basic checkpoint in 8
)

type tracer struct {
	base time.Time

	mu      sync.Mutex
	spans   []span
	dropped int

	nodes       []nodeTrace
	recoverRoot atomic.Int32 // span index+1 of the recovery in progress
}

// nodeTrace is one node's tracing state, guarded by that node's lock.
type nodeTrace struct {
	t    *tracer
	node int

	// Every wrapped call lands in its kind's histogram, sampled or not.
	h [spKinds]hist

	// A delivery group opens at the forced-checkpoint decision and closes
	// when OnDeliver returns. Whether its message is sampled is only known
	// at the close (the sequence number is in the payload), so the group's
	// spans wait in pend and are published or dropped then.
	pend  []span // Parent here indexes pend (+1)
	stack []int32
	open  bool

	loose    int          // sampling counter for calls outside any group or root
	ckptRoot atomic.Int32 // span index+1 of the basic checkpoint in progress
	calls    uint64       // protocol decisions
}

func newTracer(n int) *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, 0, maxSpans), nodes: make([]nodeTrace, n)}
	for i := range t.nodes {
		t.nodes[i] = nodeTrace{t: t, node: i, pend: make([]span, 0, 32), stack: make([]int32, 0, 8)}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// publish appends spans to the shared list and returns the index+1 of the
// first, or 0 when the list is full.
func (t *tracer) publish(ss ...span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans)+len(ss) > maxSpans {
		t.dropped += len(ss)
		return 0
	}
	first := int32(len(t.spans)) + 1
	t.spans = append(t.spans, ss...)
	return first
}

// openRoot publishes a root span the benchmark itself times (a basic
// checkpoint, a recovery) and announces it in slot, so that the wrapped calls
// made underneath find their parent; closeRoot withdraws it and stamps its end.
func (t *tracer) openRoot(slot *atomic.Int32, s span) int32 {
	s.Start = t.now()
	root := t.publish(s)
	slot.Store(root)
	return root
}

func (t *tracer) closeRoot(slot *atomic.Int32, root int32) {
	slot.Store(0)
	if root == 0 {
		return
	}
	t.mu.Lock()
	t.spans[root-1].End = t.now()
	t.mu.Unlock()
}

// begin opens a wrapped call on this node. It returns a token for end.
func (nt *nodeTrace) begin(kind uint8) int32 {
	if kind == spForcedCheck && !nt.open {
		nt.open = true
		nt.pend = append(nt.pend[:0], span{Kind: spDeliver, Node: int16(nt.node), Start: nt.t.now()})
		nt.stack = append(nt.stack[:0], 1)
	}
	var parent int32
	if len(nt.stack) > 0 {
		parent = nt.stack[len(nt.stack)-1]
	}
	nt.pend = append(nt.pend, span{Kind: kind, Node: int16(nt.node), Parent: parent, Start: nt.t.now()})
	tok := int32(len(nt.pend))
	nt.stack = append(nt.stack, tok)
	return tok
}

// end closes the call begin opened. Outside a delivery group the finished
// call tree is published at once, under the root the benchmark announced
// (a basic checkpoint or a recovery), if any.
func (nt *nodeTrace) end(tok int32, id int64) {
	s := &nt.pend[tok-1]
	s.End = nt.t.now()
	s.ID = id
	nt.h[s.Kind].add(s.End - s.Start)
	nt.stack = nt.stack[:len(nt.stack)-1]
	if nt.open || len(nt.stack) > 0 {
		return
	}
	var root int32
	switch s.Kind {
	case spSave, spOnCheckpoint:
		root = nt.ckptRoot.Load()
	case spLoad, spIndices, spRollback, spReleaseStale:
		root = nt.t.recoverRoot.Load()
	}
	if root == 0 {
		// A loose call (a flushed merge's OnNewInfo, the initial checkpoint):
		// sampled like messages are.
		nt.loose++
		if nt.loose&msgSampleMask != 0 {
			nt.pend = nt.pend[:0]
			return
		}
	}
	nt.flush(root)
}

// closeGroup ends the delivery group with the message's id and publishes it
// when the message is a sampled one.
func (nt *nodeTrace) closeGroup(msgID int64, sent int64, sampled bool) {
	if !nt.open {
		return
	}
	nt.open = false
	now := nt.t.now()
	nt.pend[0].End = now
	nt.pend[0].ID = msgID
	nt.h[spDeliver].add(now - nt.pend[0].Start)
	nt.stack = nt.stack[:0]
	if !sampled {
		nt.pend = nt.pend[:0]
		return
	}
	root := nt.t.publish(span{Kind: spMsg, Node: int16(nt.node), Start: sent, End: now, ID: msgID})
	if root != 0 {
		nt.flush(root)
	}
	nt.pend = nt.pend[:0]
}

// flush publishes pend under root, rewriting the group-local parents to
// positions in the shared list.
func (nt *nodeTrace) flush(root int32) {
	nt.t.mu.Lock()
	if len(nt.t.spans)+len(nt.pend) > maxSpans {
		nt.t.dropped += len(nt.pend)
	} else {
		off := int32(len(nt.t.spans))
		for _, s := range nt.pend {
			if s.Parent == 0 {
				s.Parent = root
			} else {
				s.Parent += off
			}
			nt.t.spans = append(nt.t.spans, s)
		}
	}
	nt.t.mu.Unlock()
	nt.pend = nt.pend[:0]
}

// selfTimes returns, per span kind, each span's duration minus the time its
// direct children cover. Children of one span never overlap (they are calls
// made one after another by the goroutine that holds the node's lock), so a
// plain subtraction is exact.
func selfTimes(spans []span) [spKinds][]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	var out [spKinds][]float64
	for i, s := range spans {
		out[s.Kind] = append(out[s.Kind], float64(s.End-s.Start-child[i]))
	}
	return out
}

// kindHist merges one span kind's histogram over the nodes.
func (t *tracer) kindHist(kind int) *hist {
	var h hist
	for i := range t.nodes {
		h.merge(&t.nodes[i].h[kind])
	}
	return &h
}

func (t *tracer) protocolCalls() uint64 {
	var n uint64
	for i := range t.nodes {
		n += t.nodes[i].calls
	}
	return n
}

// writeJSONL writes the kept spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		ID     int64  `json:"id"`
		Node   int16  `json:"node"`
	}
	for _, s := range t.spans {
		if err := enc.Encode(line{spanNames[s.Kind], s.Start, s.End, s.Parent, s.ID, s.Node}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore times every Store call of one node.
type tracedStore struct {
	storage.Store
	nt *nodeTrace
}

func (s tracedStore) Save(cp storage.Checkpoint) error {
	tok := s.nt.begin(spSave)
	err := s.Store.Save(cp)
	s.nt.end(tok, int64(cp.Index))
	return err
}

func (s tracedStore) Delete(index int) error {
	tok := s.nt.begin(spDelete)
	err := s.Store.Delete(index)
	s.nt.end(tok, int64(index))
	return err
}

func (s tracedStore) Load(index int) (storage.Checkpoint, error) {
	tok := s.nt.begin(spLoad)
	cp, err := s.Store.Load(index)
	s.nt.end(tok, int64(index))
	return cp, err
}

func (s tracedStore) Indices() []int {
	tok := s.nt.begin(spIndices)
	out := s.Store.Indices()
	s.nt.end(tok, int64(len(out)))
	return out
}

// SetObs forwards the registry handles to the wrapped store, so the
// program's own storage counters keep counting under the wrapper.
func (s tracedStore) SetObs(m obs.StoreMetrics, rec *obs.Recorder, process int) {
	if ins, ok := s.Store.(obs.Instrumentable); ok {
		ins.SetObs(m, rec, process)
	}
}

// tracedGC times every collector call of one node.
type tracedGC struct {
	gc.Local
	nt *nodeTrace
}

func (g tracedGC) OnCheckpoint(index int, dv vclock.DV) error {
	tok := g.nt.begin(spOnCheckpoint)
	err := g.Local.OnCheckpoint(index, dv)
	g.nt.end(tok, int64(index))
	return err
}

func (g tracedGC) OnNewInfo(increased []int, dv vclock.DV) error {
	tok := g.nt.begin(spOnNewInfo)
	err := g.Local.OnNewInfo(increased, dv)
	g.nt.end(tok, int64(len(increased)))
	return err
}

func (g tracedGC) Rollback(ri int, li []int) (vclock.DV, error) {
	tok := g.nt.begin(spRollback)
	dv, err := g.Local.Rollback(ri, li)
	g.nt.end(tok, int64(ri))
	return dv, err
}

func (g tracedGC) ReleaseStale(li []int, dv vclock.DV) error {
	tok := g.nt.begin(spReleaseStale)
	err := g.Local.ReleaseStale(li, dv)
	g.nt.end(tok, 0)
	return err
}

// tracedProtocol times the forced-checkpoint decision of one node; the
// decision is also what opens the node's delivery group.
type tracedProtocol struct {
	protocol.Protocol
	nt *nodeTrace
}

func (p tracedProtocol) ForcedBeforeDelivery(local vclock.DV, pb protocol.Piggyback) bool {
	tok := p.nt.begin(spForcedCheck)
	forced := p.Protocol.ForcedBeforeDelivery(local, pb)
	p.nt.calls++
	id := int64(0)
	if forced {
		id = 1
	}
	p.nt.end(tok, id)
	return forced
}

// unwrapGC returns the collector under a tracing wrapper, if there is one.
func unwrapGC(l gc.Local) gc.Local {
	if t, ok := l.(tracedGC); ok {
		return t.Local
	}
	return l
}

func (t *tracer) String() string {
	return fmt.Sprintf("%d spans kept, %d dropped", len(t.spans), t.dropped)
}
