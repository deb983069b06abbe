// Package history is the live cluster's record of what happened: what tests
// and the chaos engine replay through the internal/ccp oracles. Nothing on
// the message path shares it. Each node appends its own events —
// checkpoint, send, receive — to its own Log, under the node lock the three
// record sites already hold, stamped with a tick from the cluster's one
// atomic counter. A total order is built only when somebody asks for one
// (Linearize merges the logs by tick), and a recovery session cuts only the
// logs of the processes it rolls back, from the tail.
//
// Tick order is a linearization of the execution: a node's ticks increase
// because it draws them under its own lock, and a receive draws its tick
// after the send that caused it has returned, so every event follows the
// events it depends on. When the execution is serialized — one operation at
// a time, the network drained in between — tick order is simply the order
// things happened, which is the order a single cluster-wide script would
// have been appended in.
//
// A Log is not safe for concurrent use; its owner's lock guards it.
package history

import (
	"slices"

	"repro/internal/ccp"
)

// chunkEvents sizes a log chunk: 256 events of 16 bytes, 4 KiB. A full
// chunk is never copied or grown; a node allocates one per 256 events. The
// size is what a process that records one event pays: at 2048 events
// (32 KiB, past the allocator's size classes) the first message on every
// pair of a 32-node cluster cost 1 MiB of fresh memory and showed in the
// benchmark's set-up time.
const chunkEvents = 256

// event is one recorded middleware event, pointer-free so the garbage
// collector never scans a chunk.
type event struct {
	tick uint64 // position in the cluster-wide linearization
	ref  uint64 // message id<<2 | ccp.OpKind (id 0 on checkpoints)
}

func (e event) kind() ccp.OpKind { return ccp.OpKind(e.ref & 3) }
func (e event) msg() uint64      { return e.ref >> 2 }

// chunk is kept apart from its events so that the events fill an allocator
// size class exactly (4096 bytes); with the counter inside, each chunk
// would take the next class up, 18 % larger.
type chunk struct {
	ckptBase int // checkpoint events recorded in earlier chunks
	ev       *[chunkEvents]event
}

// Log is one process's append-only history; the zero value is empty.
// len(chunks) is always ceil(n / chunkEvents).
type Log struct {
	chunks []chunk
	n      int // events recorded
	ckpts  int // checkpoint events among them
}

// Checkpoint records that the process took a checkpoint.
func (l *Log) Checkpoint(tick uint64) { l.record(tick, ccp.OpCheckpoint, 0) }

// Send records a send. The message's id is this event's tick: unique across
// the cluster and never reused, so a receive names its send without any
// shared table, before and after cuts.
func (l *Log) Send(tick uint64) { l.record(tick, ccp.OpSend, tick) }

// Recv records the receipt of the message whose send drew tick msg.
func (l *Log) Recv(tick, msg uint64) { l.record(tick, ccp.OpRecv, msg) }

func (l *Log) record(tick uint64, kind ccp.OpKind, msg uint64) {
	i := l.n % chunkEvents
	if i == 0 {
		l.chunks = append(l.chunks, chunk{ckptBase: l.ckpts, ev: new([chunkEvents]event)})
	}
	l.chunks[l.n/chunkEvents].ev[i] = event{tick: tick, ref: msg<<2 | uint64(kind)}
	l.n++
	if kind == ccp.OpCheckpoint {
		l.ckpts++
	}
}

// Len returns the number of events held.
func (l *Log) Len() int { return l.n }

// Checkpoints returns the number of checkpoint events held.
func (l *Log) Checkpoints() int { return l.ckpts }

func (l *Log) at(i int) event { return l.chunks[i/chunkEvents].ev[i%chunkEvents] }

// CutAfterCheckpoint drops every event after the k-th checkpoint event
// (everything for k = 0; nothing if fewer than k were recorded, as
// ccp.Truncate keeps such a process whole) and reports how many events and
// chunks it looked at. It walks back from the tail — over whole chunks by
// their ckptBase, then inside one — so the work is what it drops, however
// long the history before the cut.
func (l *Log) CutAfterCheckpoint(k int) (visited int) {
	if k > l.ckpts {
		return 0
	}
	ci := len(l.chunks) - 1
	for ci >= 0 && l.chunks[ci].ckptBase >= k {
		ci-- // the k-th checkpoint precedes this chunk
		visited++
	}
	keep := 0
	if ci >= 0 {
		// Chunk ci holds the k-th checkpoint; count down to it from the
		// number recorded through the chunk's end.
		c, end, through := l.chunks[ci], l.n-ci*chunkEvents, l.ckpts
		if ci+1 < len(l.chunks) {
			end, through = chunkEvents, l.chunks[ci+1].ckptBase
		}
		for j := end - 1; j >= 0; j-- {
			visited++
			if c.ev[j].kind() != ccp.OpCheckpoint {
				continue
			}
			if through == k {
				keep = ci*chunkEvents + j + 1
				break
			}
			through--
		}
	}
	live := (keep + chunkEvents - 1) / chunkEvents
	clear(l.chunks[live:])
	l.chunks = l.chunks[:live]
	l.n, l.ckpts = keep, k
	return visited
}

// Linearize merges the logs — logs[p] is process p's — by tick into one
// script, numbering sends densely in merge order. A receive whose send is
// in no log — the sender was cut before it — is dropped, which is
// ccp.Truncate's "a receive survives only if its send does" applied at read
// time instead of at every session. No log may be appended to meanwhile.
func Linearize(logs []*Log) ccp.Script {
	// heads is a min-heap on the tick of each non-empty log's next event.
	type head struct {
		tick uint64
		p, i int
	}
	heads := make([]head, 0, len(logs))
	total := 0
	for p, l := range logs {
		if l.n > 0 {
			heads = append(heads, head{tick: l.at(0).tick, p: p})
			total += l.n
		}
	}
	down := func(i int) {
		for {
			s, l, r := i, 2*i+1, 2*i+2
			if l < len(heads) && heads[l].tick < heads[s].tick {
				s = l
			}
			if r < len(heads) && heads[r].tick < heads[s].tick {
				s = r
			}
			if s == i {
				return
			}
			heads[i], heads[s] = heads[s], heads[i]
			i = s
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}

	ops := make([]ccp.Op, 0, total)
	// sent holds the ids (send ticks) of the sends emitted so far; ascending
	// because the merge is, so a send's dense number is its position.
	var sent []uint64
	for len(heads) > 0 {
		h := &heads[0]
		l := logs[h.p]
		e := l.at(h.i)
		switch e.kind() {
		case ccp.OpCheckpoint:
			ops = append(ops, ccp.Op{Kind: ccp.OpCheckpoint, P: h.p})
		case ccp.OpSend:
			ops = append(ops, ccp.Op{Kind: ccp.OpSend, P: h.p, Msg: len(sent)})
			sent = append(sent, e.msg())
		case ccp.OpRecv:
			if m, ok := slices.BinarySearch(sent, e.msg()); ok {
				ops = append(ops, ccp.Op{Kind: ccp.OpRecv, P: h.p, Msg: m})
			}
		}
		if h.i++; h.i < l.n {
			h.tick = l.at(h.i).tick
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		down(0)
	}
	return ccp.Script{N: len(logs), Ops: ops}
}
