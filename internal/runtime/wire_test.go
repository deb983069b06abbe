package runtime

import (
	"testing"

	"repro/internal/node"
	"repro/internal/vclock"
)

// TestWindowSteadyStateAllocs pins the TCP wire's retransmit window in its
// steady state: a pair that keeps 16 frames outstanding accepts one frame
// and prunes one delivered frame per round without allocating — the ring is
// reused in place and the pruned frame's piggyback snapshot feeds the next
// clone.
func TestWindowSteadyStateAllocs(t *testing.T) {
	c, err := NewCluster(Config{N: 2, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	w := c.wire.(*meshWire)
	pl, mp := c.link(0, 1), w.pair(0, 1)
	dv := vclock.New(2)
	round := func(deliver int64) {
		p := pending{delivery: delivery{pb: node.Piggyback{DV: c.nodes[0].CloneDV(dv)}}}
		pl.mu.Lock()
		mp.window.push(&p)    // what send does with a frame the mesh accepted
		mp.deliv.Add(deliver) // what onWire does when the receiver got one
		w.pruneWindow(0, mp)
		pl.mu.Unlock()
	}
	for i := 0; i < 16; i++ {
		round(0)
	}
	for i := 0; i < 64; i++ {
		round(1) // warm: the ring reaches its size, the freelist fills
	}
	if got := testing.AllocsPerRun(1000, func() { round(1) }); got != 0 {
		t.Fatalf("%v allocs per accepted+pruned frame, want 0", got)
	}
	if mp.window.n != 16 || len(mp.window.buf) != 32 {
		t.Fatalf("window holds %d frames in %d slots, want 16 in 32", mp.window.n, len(mp.window.buf))
	}
	// The frames come out oldest first: winBase counts every pruned one.
	if want := mp.deliv.Load(); mp.winBase != want {
		t.Fatalf("winBase %d after %d deliveries", mp.winBase, want)
	}
}
