package runtime

import (
	"sync/atomic"

	"repro/internal/ccp"
	"repro/internal/runtime/history"
)

// This file is the recorded history (Config.Record), and the only file of
// the runtime that touches it: the three record sites — a checkpoint, a
// send, a receive, each under the node lock its caller already holds — the
// cut a recovery session makes, and the merge History performs. On a
// cluster that does not record, every site returns at once: nothing is
// logged, and no message draws the cluster's tick (DESIGN.md, "The recorded
// history").

// recording is a recorded cluster's share of the history. tick orders the
// nodes' logs (see package history): every recorded event draws the next
// value, and a send's tick doubles as its message id. cutVisited sums what
// sessions looked at while cutting logs.
type recording struct {
	tick       atomic.Uint64
	cutVisited int
}

// notRecorded is what History and Oracle panic with on a cluster built
// without Config.Record.
const notRecorded = "runtime: no history recorded; build the cluster with Config.Record"

// recordCheckpoint logs a checkpoint the kernel just staged.
func (n *Node) recordCheckpoint() {
	if !n.c.cfg.Record {
		return
	}
	n.log.Checkpoint(n.c.hist.tick.Add(1))
}

// recordSend logs a send and returns the message's id. Unrecorded, the id
// is the sender's own count. Recorded, it is the send's tick, unique across
// the cluster, so that recorded runs keep printing the ids their golden
// flight recordings pin. Either way (From, Msg) names one message for the
// cluster's life.
func (n *Node) recordSend() int {
	if !n.c.cfg.Record {
		n.lastID++
		return int(n.lastID)
	}
	tick := n.c.hist.tick.Add(1)
	n.log.Send(tick)
	return int(tick)
}

// recordRecv logs the receipt of message msg, drawing its tick after the
// send's returned.
func (n *Node) recordRecv(msg int) {
	if !n.c.cfg.Record {
		return
	}
	n.log.Recv(n.c.hist.tick.Add(1), uint64(msg))
}

// cutHistory drops what the node logged after its k-th checkpoint: a
// recovery session rolled it back there.
func (n *Node) cutHistory(k int) {
	if !n.c.cfg.Record {
		return
	}
	n.c.hist.cutVisited += n.log.CutAfterCheckpoint(k)
}

// History returns a snapshot of the linearized middleware history; replayed
// through internal/ccp it reconstructs the exact pattern of the concurrent
// execution so far. It is built on demand by merging the nodes' logs, with
// every node locked for the duration (as a recovery session locks them), so
// the snapshot is exactly the events recorded before it. On a cluster built
// without Config.Record it panics with "runtime: no history recorded; build
// the cluster with Config.Record": there is no history to return, and an
// empty script would pass every oracle.
func (c *Cluster) History() ccp.Script {
	if !c.cfg.Record {
		panic(notRecorded)
	}
	logs := make([]*history.Log, len(c.nodes))
	for i, n := range c.nodes {
		n.mu.Lock()
		logs[i] = &n.log
	}
	defer func() {
		for _, n := range c.nodes {
			n.mu.Unlock()
		}
	}()
	return history.Linearize(logs)
}

// Oracle rebuilds the ground-truth CCP from the recorded history. Like
// History, on a cluster built without Config.Record it panics with
// "runtime: no history recorded; build the cluster with Config.Record".
func (c *Cluster) Oracle() *ccp.CCP {
	h := c.History()
	return h.BuildCCP()
}
