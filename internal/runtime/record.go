package runtime

import (
	"sync/atomic"

	"repro/internal/ccp"
	"repro/internal/obs"
)

// This file is the only one of the runtime that writes the flight recorder
// and the only one that names the cluster tick. The three message sites — a
// checkpoint, a send, a receive, each under the node lock its caller
// already holds — make one record call each; every other event goes through
// Cluster.record. On a cluster built with Config.Record the recorder is the
// history: History joins its events at read time (DESIGN.md, "The recorded
// history"). An unrecorded cluster draws no tick, and one with no recorder
// records nothing.

// recording is a recorded cluster's message-id source. The tick is drawn by
// every checkpoint, send and receive, and a send's tick is its message's id,
// so recorded runs keep the ids their golden flight recordings pin. It
// orders nothing: the recorder's Seq does.
type recording struct {
	tick atomic.Uint64
}

// notRecorded is what History and Oracle panic with on a cluster built
// without Config.Record.
const notRecorded = "runtime: no history recorded; build the cluster with Config.Record"

// record writes one flight event that no message site makes: a crash, a
// restart, a rollback, a link going down or up, dropped frames.
func (c *Cluster) record(ev obs.Event) { c.flight.Record(ev) }

// recordCheckpoint records a checkpoint the kernel just staged.
func (n *Node) recordCheckpoint(index int, basic bool) {
	if n.c.cfg.Record {
		n.c.rec.tick.Add(1)
	}
	forced := 0
	if !basic {
		forced = 1
	}
	n.c.flight.Record(obs.Event{Kind: obs.EvCheckpoint, P: n.id, Msg: index, Aux: forced, Clock: index})
}

// recordSend records a send to process to and returns the message's id.
// Unrecorded, the id is the sender's own count. Recorded, it is the send's
// tick, unique across the cluster. Either way (From, Msg) names one message
// for the cluster's life.
func (n *Node) recordSend(to int) int {
	var id int
	if n.c.cfg.Record {
		id = int(n.c.rec.tick.Add(1))
	} else {
		n.lastID++
		id = int(n.lastID)
	}
	n.c.flight.Record(obs.Event{Kind: obs.EvSend, P: n.id, Msg: id, Aux: to, Clock: n.k.DVRef()[n.id]})
	return id
}

// recordRecv records the delivery of message id from process from.
func (n *Node) recordRecv(from, id int) {
	if n.c.cfg.Record {
		n.c.rec.tick.Add(1)
	}
	n.c.flight.Record(obs.Event{Kind: obs.EvDeliver, P: n.id, Msg: id, Aux: from, Clock: n.k.DVRef()[n.id]})
}

// History returns a snapshot of the linearized middleware history; replayed
// through internal/ccp it reconstructs the exact pattern of the concurrent
// execution so far. It joins the recorder's events as they stand, and takes
// no node lock: the events form a Seq prefix of a valid linearization,
// which is one itself. On a cluster built without Config.Record it panics
// with "runtime: no history recorded; build the cluster with Config.Record":
// there is no history to return, and an empty script would pass every
// oracle.
func (c *Cluster) History() ccp.Script {
	if !c.cfg.Record {
		panic(notRecorded)
	}
	return joinHistory(c.cfg.N, c.flight.Events())
}

// joinHistory turns a recorded cluster's flight events, in Seq order, into
// the script of what survives. A rollback {P: j, Msg: k} drops j's earlier
// events after its k-th checkpoint (everything for k = 0; nothing if j has
// fewer). A receive survives if its send does, and only then —
// ccp.Truncate's rule, applied once at read time. Sends are numbered densely
// in Seq order. A duplicate receive is kept: the oracles must see it.
func joinHistory(n int, evs []obs.Event) ccp.Script {
	alive := make([]bool, len(evs))
	kept := make([][]int, n)  // per process: indices into evs of its surviving events
	ckpts := make([][]int, n) // per process: positions in kept of its checkpoints
	top := 0                  // the largest Msg, and so the largest message id
	for i, ev := range evs {
		top = max(top, ev.Msg)
		switch p := ev.P; ev.Kind {
		case obs.EvCheckpoint:
			ckpts[p] = append(ckpts[p], len(kept[p]))
			fallthrough
		case obs.EvSend, obs.EvDeliver:
			kept[p] = append(kept[p], i)
			alive[i] = true
		case obs.EvRollback:
			if k := ev.Msg; k <= len(ckpts[p]) {
				cut := 0
				if k > 0 {
					cut = ckpts[p][k-1] + 1
				}
				for _, j := range kept[p][cut:] {
					alive[j] = false
				}
				kept[p], ckpts[p] = kept[p][:cut], ckpts[p][:k]
			}
		}
	}
	// A recorded cluster's message ids are ticks: unique across the cluster,
	// and about as many as the events.
	sendOf := make([]int, top+1) // message id → 1 + its send's number, or 0
	sends := 0
	ops := make([]ccp.Op, 0, len(evs))
	for i, ev := range evs {
		if !alive[i] {
			continue
		}
		switch ev.Kind {
		case obs.EvCheckpoint:
			ops = append(ops, ccp.Op{Kind: ccp.OpCheckpoint, P: ev.P})
		case obs.EvSend:
			ops = append(ops, ccp.Op{Kind: ccp.OpSend, P: ev.P, Msg: sends})
			sends++
			sendOf[ev.Msg] = sends
		case obs.EvDeliver:
			if m := sendOf[ev.Msg]; m > 0 {
				ops = append(ops, ccp.Op{Kind: ccp.OpRecv, P: ev.P, Msg: m - 1})
			}
		}
	}
	return ccp.Script{N: n, Ops: ops}
}

// Oracle rebuilds the ground-truth CCP from the recorded history. Like
// History, on a cluster built without Config.Record it panics with
// "runtime: no history recorded; build the cluster with Config.Record".
func (c *Cluster) Oracle() *ccp.CCP {
	h := c.History()
	return h.BuildCCP()
}
