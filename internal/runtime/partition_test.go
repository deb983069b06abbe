package runtime_test

import (
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/ccp"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// bothWires runs one test body on each wire the link layer can stand on:
// the in-process hand-off and the TCP mesh. The cut, the backlog and the
// retransmit are the link layer's, so every promise about them is made —
// and checked, by the same body — on both.
func bothWires(t *testing.T, body func(t *testing.T, tcp bool)) {
	for _, tcp := range []bool{false, true} {
		t.Run(wireName(tcp), func(t *testing.T) { body(t, tcp) })
	}
}

func wireName(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "in-process"
}

// compressedCluster builds the configuration the partition tests lean on:
// compressed piggybacking, whose delivery-order verification inside every
// kernel is the loud witness that retransmission introduced no duplicate,
// reorder, or silent loss.
func compressedCluster(t *testing.T, n int, tcp bool, link runtime.LinkOptions) *runtime.Cluster {
	t.Helper()
	c, err := runtime.NewCluster(runtime.Config{
		N:        n,
		TCP:      tcp,
		Compress: true,
		Link:     link,
		Net:      runtime.NetworkOptions{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pairStreams extracts, per (sender, receiver) pair, the sequence of
// message ids delivered, in delivery order, from a linearized history.
func pairStreams(h ccp.Script) map[[2]int][]int {
	sender := make(map[int]int)
	for _, op := range h.Ops {
		if op.Kind == ccp.OpSend {
			sender[op.Msg] = op.P
		}
	}
	streams := make(map[[2]int][]int)
	for _, op := range h.Ops {
		if op.Kind == ccp.OpRecv {
			key := [2]int{sender[op.Msg], op.P}
			streams[key] = append(streams[key], op.Msg)
		}
	}
	return streams
}

// counts returns (sends, recvs) of a history.
func counts(h ccp.Script) (int, int) {
	var s, r int
	for _, op := range h.Ops {
		switch op.Kind {
		case ccp.OpSend:
			s++
		case ccp.OpRecv:
			r++
		}
	}
	return s, r
}

// TestPartitionQuiesceWhileOpen pins the no-hang contract: with a split
// open and traffic parked behind it, Quiesce returns — parked frames hold
// no in-flight accounting — and a heal followed by another Quiesce drains
// every stranded message into the receivers.
func TestPartitionQuiesceWhileOpen(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		c := compressedCluster(t, 4, tcp, runtime.LinkOptions{})
		defer c.Close()

		if err := c.Partition([][]int{{0, 1}, {2, 3}}); err != nil {
			t.Fatal(err)
		}
		if got := c.PartitionedPairs(); got != 8 {
			t.Fatalf("PartitionedPairs = %d, want 8", got)
		}
		const crossSends = 20
		for k := 0; k < crossSends; k++ {
			if err := c.Node(0).Send(2); err != nil {
				t.Fatalf("cross-partition send %d: %v", k, err)
			}
			if err := c.Node(1).Send(0); err != nil {
				t.Fatalf("in-group send %d: %v", k, err)
			}
		}

		done := make(chan struct{})
		go func() { c.Quiesce(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("Quiesce hung while a partition was open")
		}

		_, recvs := counts(c.History())
		if recvs < crossSends {
			t.Fatalf("in-group traffic did not flow during the split: %d recvs", recvs)
		}
		if recvs >= 2*crossSends {
			t.Fatalf("cross-partition traffic leaked through the split: %d recvs", recvs)
		}

		if healed := c.HealAll(); healed != 8 {
			t.Fatalf("HealAll healed %d pairs, want 8", healed)
		}
		c.Quiesce()
		sends, recvs := counts(c.History())
		if sends != 2*crossSends || recvs != sends {
			t.Fatalf("after heal: %d sends, %d recvs; want %d of each (retransmit lost frames?)",
				sends, recvs, 2*crossSends)
		}
		for pair, stream := range pairStreams(c.History()) {
			for i := 1; i < len(stream); i++ {
				if stream[i] <= stream[i-1] {
					t.Fatalf("pair %v delivered out of order: %v", pair, stream)
				}
			}
		}
	})
}

// TestPartitionFlappingUnderLoad is the reconnect torture: a link flaps
// while every node pushes traffic flat out, and afterwards the healed
// cluster must show exactly-once, per-pair-FIFO delivery of every message
// — zero loss, zero duplicates, zero reorders. Compressed piggybacking is
// on, so the kernel's delta decoding would have failed loudly mid-run on
// any wire-order violation. The CI partition lane runs this under -race.
func TestPartitionFlappingUnderLoad(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const (
			n          = 3
			opsPerNode = 400
			flaps      = 40
		)
		c := compressedCluster(t, n, tcp, runtime.LinkOptions{Window: 1 << 15})
		defer c.Close()

		var stop atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + id)))
				node := c.Node(id)
				for k := 0; k < opsPerNode; k++ {
					to := rng.Intn(n - 1)
					if to >= id {
						to++
					}
					if err := node.Send(to); err != nil {
						t.Errorf("p%d send: %v", id, err)
						return
					}
				}
			}(i)
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < flaps && !stop.Load(); f++ {
				c.BreakLink(0, 1)
				time.Sleep(time.Millisecond)
				c.HealLink(0, 1)
				time.Sleep(time.Millisecond)
			}
		}()

		wg.Wait()
		stop.Store(true)
		c.HealAll()
		c.Quiesce()

		h := c.History()
		if err := h.Validate(); err != nil {
			t.Fatalf("history invalid after flapping (duplicate delivery?): %v", err)
		}
		sends, recvs := counts(h)
		if sends != n*opsPerNode {
			t.Fatalf("recorded %d sends, drove %d", sends, n*opsPerNode)
		}
		if recvs != sends {
			t.Fatalf("%d of %d messages delivered: the flapped link lost traffic", recvs, sends)
		}
		for pair, stream := range pairStreams(h) {
			for i := 1; i < len(stream); i++ {
				if stream[i] <= stream[i-1] {
					t.Fatalf("pair %v delivered out of order across reconnects: %v", pair, stream)
				}
			}
		}
		if v, bad := c.Oracle().FirstRDTViolation(); bad {
			t.Fatalf("post-flap pattern not RDT: %v", v)
		}
	})
}

// TestPartitionCloseDuringBackoff pins the prompt-shutdown fix: Close
// while retransmit timers are armed with a huge backoff must return
// promptly — the retry machinery observes the closed flag instead of
// waiting out its schedule. A cut pair arms no timer (it waits for the
// heal), so the backlog here stands behind a dial that fails: a deadline
// that has passed before the dial can start.
func TestPartitionCloseDuringBackoff(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		if !tcp {
			t.Skip("the in-process wire refuses nothing, so it never arms a retry timer")
		}
		reg := obs.NewRegistry()
		c, err := runtime.NewCluster(runtime.Config{
			N: 2, TCP: true, Compress: true,
			Link: runtime.LinkOptions{
				RetryBase:   30 * time.Second,
				RetryCap:    time.Minute,
				DialTimeout: time.Nanosecond,
			},
			Obs: obs.Options{Registry: reg},
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if err := c.Node(0).Send(1); err != nil {
				t.Fatalf("send %d: %v", k, err)
			}
		}
		c.Quiesce() // everything is parked; the retry timer now holds a 15 s+ schedule
		snap := reg.Snapshot()
		if h, _ := snap.Histogram(obs.RuntimeLinkBackoffNs); h.Count != 1 || snap.Gauge(obs.RuntimeLinkParked) != 10 {
			t.Fatalf("%d retry timers armed over %d parked frames, want 1 over 10",
				h.Count, snap.Gauge(obs.RuntimeLinkParked))
		}

		t0 := time.Now()
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if d := time.Since(t0); d > 3*time.Second {
			t.Fatalf("Close took %v with a retry pending; must not wait on backoff timers", d)
		}
	})
}

// TestPartitionDifferentialDelivery is the differential oracle: the same
// seeded op stream driven once through a split-and-heal and once through
// an untouched mesh must produce delivery-equivalent histories — identical
// per-pair message sequences — differing only in when the cut's messages
// arrived. This is exactly the sense in which the healed mesh is
// indistinguishable from one that never partitioned.
func TestPartitionDifferentialDelivery(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const (
			n    = 4
			ops  = 120
			seed = 7
		)
		drive := func(partitioned bool) ccp.Script {
			c := compressedCluster(t, n, tcp, runtime.LinkOptions{})
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < ops; k++ {
				if partitioned && k == ops/3 {
					if err := c.Partition([][]int{{0, 1}, {2, 3}}); err != nil {
						t.Fatal(err)
					}
				}
				if partitioned && k == 2*ops/3 {
					c.HealAll()
					c.Quiesce()
				}
				from := rng.Intn(n)
				to := rng.Intn(n - 1)
				if to >= from {
					to++
				}
				if err := c.Node(from).Send(to); err != nil {
					t.Fatalf("op %d: p%d send: %v", k, from, err)
				}
				c.Quiesce()
			}
			c.HealAll()
			c.Quiesce()
			return c.History()
		}

		plain := drive(false)
		healed := drive(true)

		if err := healed.Validate(); err != nil {
			t.Fatalf("healed history invalid: %v", err)
		}
		ps, pr := counts(plain)
		hs, hr := counts(healed)
		if ps != hs || pr != hr || pr != ps {
			t.Fatalf("op streams diverged: plain %d/%d sends/recvs, healed %d/%d", ps, pr, hs, hr)
		}
		want := pairStreams(plain)
		got := pairStreams(healed)
		if len(want) != len(got) {
			t.Fatalf("pair sets diverged: plain %d pairs, healed %d", len(want), len(got))
		}
		for pair, w := range want {
			g := got[pair]
			if len(g) != len(w) {
				t.Fatalf("pair %v: plain delivered %d, healed %d", pair, len(w), len(g))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("pair %v diverges at position %d: plain %v, healed %v", pair, i, w, g)
				}
			}
		}
	})
}

// TestPartitionRetransmitKeepsEntryBuffers is the ownership rule of
// compressed piggybacks under the one condition that stretches it: a frame's
// entries live in a recycled buffer, and the frame sits parked behind a
// broken link — then in the retransmit window — while the sender goes on
// encoding other messages out of the same freelist. Were a buffer recycled
// while the backlog still held it, a later message would overwrite the
// parked frame's entries: under -race that is a reported race, and in any
// build the receiver's vector would stop matching the replayed pattern.
// Message ids, per-pair order and the kernels' FIFO verification (a delivery
// panic) cover loss, duplication and reordering.
func TestPartitionRetransmitKeepsEntryBuffers(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const (
			n      = 4
			rounds = 60
		)
		c := compressedCluster(t, n, tcp, runtime.LinkOptions{})
		defer c.Close()

		// Warm every pair and the freelist, so what parks below are incremental
		// frames in buffers that have already been around once.
		for k := 0; k < 3; k++ {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if to != from {
						if err := c.Node(from).Send(to); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			c.Quiesce()
		}

		c.BreakLink(0, 1)
		for k := 0; k < rounds; k++ {
			// p0's vector moves (its own checkpoint, news from p2 and p3), each
			// version goes to the dead link, and live pairs keep the freelist
			// turning over in between.
			if err := c.Node(0).Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for _, hop := range [][2]int{{0, 1}, {2, 0}, {0, 2}, {3, 0}, {0, 3}, {2, 3}} {
				if err := c.Node(hop[0]).Send(hop[1]); err != nil {
					t.Fatalf("round %d: p%d→p%d: %v", k, hop[0], hop[1], err)
				}
			}
			c.Quiesce() // parked frames hold no in-flight accounting
		}
		_, before := counts(c.History())
		if !c.HealLink(0, 1) {
			t.Fatal("HealLink(0,1) found no break to lift")
		}
		c.Quiesce()

		h := c.History()
		if err := h.Validate(); err != nil {
			t.Fatalf("history invalid after the heal: %v", err)
		}
		sends, recvs := counts(h)
		if recvs != sends {
			t.Fatalf("%d of %d messages delivered after the heal", recvs, sends)
		}
		if recvs-before < rounds {
			t.Fatalf("the heal delivered %d messages; %d were sent into the break", recvs-before, rounds)
		}
		for pair, stream := range pairStreams(h) {
			for i := 1; i < len(stream); i++ {
				if stream[i] <= stream[i-1] {
					t.Fatalf("pair %v delivered out of order: %v", pair, stream)
				}
			}
		}
		oracle := c.Oracle()
		for i := 0; i < n; i++ {
			vol := ccp.CheckpointID{Process: i, Index: oracle.VolatileIndex(i)}
			if got, want := c.Node(i).CurrentDV(), oracle.DV(vol); !got.Equal(want) {
				t.Errorf("p%d live DV %v != replayed %v: a parked frame's entries were overwritten", i, got, want)
			}
		}
	})
}

// TestPartitionNothingCrossesAfterCut is the cut's contract under load:
// eight senders push across a split flat out, on their own goroutines, and
// from the instant Partition returns the count of messages delivered across
// the cut stands still — no sender that had read "open" a moment earlier
// slips a frame through afterwards (the barrier in cut), and no stream is
// still draining into a receiver (the awaited reap) — until the heal, which
// then delivers every one of them, once, in order.
func TestPartitionNothingCrossesAfterCut(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const n = 4 // {0,1} | {2,3}; two senders per process, all of it cross traffic
		var crossed atomic.Int64
		c, err := runtime.NewCluster(runtime.Config{
			N: n, TCP: tcp, Compress: true,
			Link:      runtime.LinkOptions{Window: 1 << 15},
			OnDeliver: func(int, app.App, []byte) { crossed.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// The senders run closed-loop against the delivered count, so the
		// backlog the cut strands stays far inside the retransmit window.
		var sent, credit atomic.Int64
		credit.Store(256)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for s := 0; s < 2*n; s++ {
			wg.Add(1)
			go func(from, to int) {
				defer wg.Done()
				for !stop.Load() {
					if sent.Load()-crossed.Load() >= credit.Load() {
						goruntime.Gosched()
						continue
					}
					if err := c.Node(from).SendPayload(to, []byte{1}); err != nil {
						t.Errorf("p%d→p%d: %v", from, to, err)
						return
					}
					sent.Add(1)
				}
			}(s/2, (2-s/4*2)+s%2) // p0,p1 → p2,p3 and back
		}
		waitFor := func(what string, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s", what)
				}
			}
		}
		waitFor("traffic across the cut-to-be", func() bool { return crossed.Load() >= 200 })

		if err := c.Partition([][]int{{0, 1}, {2, 3}}); err != nil {
			t.Fatal(err)
		}
		atCut, sentAtCut := crossed.Load(), sent.Load()
		credit.Add(500) // nothing is delivered any more: let them push on into the cut
		waitFor("senders to push into the cut", func() bool { return sent.Load() >= sentAtCut+400 })
		stop.Store(true)
		wg.Wait()
		c.Quiesce() // parked frames hold no accounting; anything that did slip through lands
		if got := crossed.Load(); got != atCut {
			t.Fatalf("%d messages crossed the cut after Partition returned (%d at the cut, %d now)", got-atCut, atCut, got)
		}

		c.HealAll()
		c.Quiesce()
		if got, want := crossed.Load(), sent.Load(); got != want {
			t.Fatalf("after the heal %d of %d messages delivered", got, want)
		}
		if h := c.History(); h.Validate() != nil {
			t.Fatalf("history invalid after the heal (duplicate delivery?): %v", h.Validate())
		}
	})
}

// TestPartitionCutAPIValidatesPairs pins what the cut API does with a pair
// that cannot exist — an index outside the cluster, a process paired with
// itself: it reports false and changes nothing (the parent indexed a table
// with it and panicked, or "cut" p1→p1 and counted it) — and what it reports
// for one that can: whether the call changed the pair's state.
func TestPartitionCutAPIValidatesPairs(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const n = 3
		c := compressedCluster(t, n, tcp, runtime.LinkOptions{})
		defer c.Close()
		for _, p := range [][2]int{{0, n}, {n, 0}, {-1, 0}, {0, -1}, {1, 1}, {n, n}} {
			if c.BreakLink(p[0], p[1]) || c.HealLink(p[0], p[1]) || c.PartitionedPairs() != 0 {
				t.Fatalf("pair %v: BreakLink/HealLink acted on a pair that cannot exist (%d cut)", p, c.PartitionedPairs())
			}
		}
		if err := c.Partition([][]int{{0, n}}); err == nil {
			t.Fatal("out-of-range partition member accepted")
		}
		if err := c.Partition([][]int{{0, 1}, {1, 2}}); err == nil {
			t.Fatal("duplicate partition member accepted")
		}
		if got := c.PartitionedPairs(); got != 0 {
			t.Fatalf("a refused Partition left %d pairs cut", got)
		}
		if !c.BreakLink(0, 1) || c.BreakLink(0, 1) || c.PartitionedPairs() != 1 {
			t.Fatalf("BreakLink(0,1) twice: want true then false with 1 pair cut, have %d", c.PartitionedPairs())
		}
		if !c.HealLink(0, 1) || c.HealLink(0, 1) || c.PartitionedPairs() != 0 {
			t.Fatalf("HealLink(0,1) twice: want true then false with 0 pairs cut, have %d", c.PartitionedPairs())
		}
	})
}

// TestPartitionImplicitGroup checks the isolation shorthand: processes named
// in no group form one implicit side, so a single one-element group cuts
// that process off in both directions and leaves the rest connected; and
// HealLink restores one direction only.
func TestPartitionImplicitGroup(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		c := compressedCluster(t, 3, tcp, runtime.LinkOptions{})
		defer c.Close()
		if err := c.Partition([][]int{{1}}); err != nil {
			t.Fatal(err)
		}
		if got := c.PartitionedPairs(); got != 4 {
			t.Fatalf("PartitionedPairs = %d isolating one of three, want 4", got)
		}
		send := func(from, to, wantRecvs int) {
			t.Helper()
			if err := c.Node(from).Send(to); err != nil {
				t.Fatal(err)
			}
			c.Quiesce()
			if _, recvs := counts(c.History()); recvs != wantRecvs {
				t.Fatalf("after p%d→p%d: %d messages delivered, want %d", from, to, recvs, wantRecvs)
			}
		}
		send(1, 0, 0) // out of the isolated process: parked
		send(2, 1, 0) // into it: parked
		send(0, 2, 1) // between the connected survivors: delivered

		if !c.HealLink(1, 0) {
			t.Fatal("HealLink(1,0) found nothing to heal")
		}
		c.Quiesce()
		if _, recvs := counts(c.History()); recvs != 2 {
			t.Fatalf("%d messages delivered after healing p1→p0, want 2", recvs)
		}
		send(0, 1, 2) // the reverse direction is still cut
		if got := c.PartitionedPairs(); got != 3 {
			t.Fatalf("PartitionedPairs = %d after one directed heal, want 3", got)
		}
		if healed := c.HealAll(); healed != 3 || c.PartitionedPairs() != 0 {
			t.Fatalf("HealAll healed %d pairs and left %d cut, want 3 and 0", healed, c.PartitionedPairs())
		}
		c.Quiesce()
		if sends, recvs := counts(c.History()); recvs != sends {
			t.Fatalf("%d of %d messages delivered after HealAll", recvs, sends)
		}
	})
}
