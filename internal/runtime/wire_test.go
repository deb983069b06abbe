package runtime

import (
	"testing"
	"unsafe"

	"repro/internal/node"
	"repro/internal/vclock"
)

// TestTCPSendRecyclesAtSendAllocs pins when the TCP wire gives a frame's
// piggyback buffer back to its sender: at send, once SendBatch has encoded
// the frame — the node's freelist holds the snapshot again before the frame
// is delivered — and a pair in steady state sends, delivers and recycles a
// frame without allocating. The frame each hand-off moves is 128 B.
func TestTCPSendRecyclesAtSendAllocs(t *testing.T) {
	if size := unsafe.Sizeof(pending{}); size != 128 {
		t.Fatalf("pending is %d B, want 128", size)
	}
	c, err := NewCluster(Config{N: 2, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	n0 := c.nodes[0]
	n0.StockBuffers(1)
	dv := vclock.New(2)
	run := make([]pending, 1)
	step := func() {
		run[0] = pending{delivery: delivery{pb: node.Piggyback{DV: n0.CloneDV(dv)}, epoch: c.curEpoch()}}
		free := n0.FreeBuffers()
		c.inflight.Add(1) // what a dispatch run holds
		c.sendRun(0, 1, run)
		if got := n0.FreeBuffers(); got != free+1 {
			t.Fatalf("%d buffers on the sender's freelist after the send, want %d", got, free+1)
		}
		c.Quiesce()
	}
	for i := 0; i < 16; i++ {
		step() // warm: the connection, the frame buffers, the receiver's scratch
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("%v allocs per frame sent, delivered and recycled, want 0", got)
	}
}
