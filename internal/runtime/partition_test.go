package runtime_test

import (
	"encoding/binary"
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
// the in-process hand-off and the TCP mesh. The cut and the backlog behind
// it are the link layer's, so every promise about them is made — and
// checked, by the same body — on both.
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
// kernel is the loud witness that a cut and its heal introduced no
// duplicate, reorder, or silent loss. It records, since they count what the history
// holds.
func compressedCluster(t *testing.T, n int, tcp bool) *runtime.Cluster {
	t.Helper()
	c, err := runtime.NewCluster(runtime.Config{
		N:        n,
		TCP:      tcp,
		Compress: true,
		Net:      runtime.NetworkOptions{Seed: 11},
		Record:   true,
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
		c := compressedCluster(t, 4, tcp)
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
		c := compressedCluster(t, n, tcp)
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
		if recounted, counted := c.DownLinks(); recounted != counted {
			t.Fatalf("after flapping %d links are down, but the cluster counts %d", recounted, counted)
		}
	})
}

// TestPartitionFlapsUnderAnUnthrottledSender holds a partition to pure
// delay under the heaviest backlog a cut can build: an n = 4 ring, each node
// sending to its successor, p0 as fast as it can and the others at a walk,
// while BreakLink/HealLink(0, 1) flap 50 times 200 µs apart. Every send is
// delivered exactly once and in order per pair, nothing is counted in
// runtime.link.lost, and on TCP nothing in transport.frames_lost; with
// compressed piggybacks a FIFO gap would panic the receiving kernel. One
// cut can strand thousands of frames, so a bound on the backlog, or a cut
// that kills the pair's connection, fails it.
func TestPartitionFlapsUnderAnUnthrottledSender(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		for _, compress := range []bool{true, false} {
			t.Run(map[bool]string{true: "compressed", false: "full"}[compress], func(t *testing.T) {
				const n, flaps, budget = 4, 50, 1 << 17
				var mu sync.Mutex
				var got [n][]uint32 // got[from]: what p<from> sent, in delivery order
				reg := obs.NewRegistry()
				c, err := runtime.NewCluster(runtime.Config{
					N: n, TCP: tcp, Compress: compress,
					Obs: obs.Options{Registry: reg},
					OnDeliver: func(self int, _ app.App, p []byte) {
						mu.Lock()
						from := (self + n - 1) % n
						got[from] = append(got[from], binary.LittleEndian.Uint32(p))
						mu.Unlock()
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				var sent [n]uint32
				var stop atomic.Bool
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for seq := uint32(0); !stop.Load() && seq < budget; seq++ {
							if err := c.Node(i).SendPayload((i+1)%n, binary.LittleEndian.AppendUint32(nil, seq)); err != nil {
								t.Errorf("p%d: %v", i, err)
								return
							}
							sent[i] = seq + 1
							if i != 0 {
								time.Sleep(100 * time.Microsecond)
							}
						}
					}(i)
				}
				for f := 0; f < flaps; f++ {
					c.BreakLink(0, 1)
					time.Sleep(200 * time.Microsecond)
					c.HealLink(0, 1)
					time.Sleep(200 * time.Microsecond)
				}
				stop.Store(true)
				wg.Wait()
				c.Quiesce()

				mu.Lock()
				defer mu.Unlock()
				for from := 0; from < n; from++ {
					if uint32(len(got[from])) != sent[from] {
						t.Fatalf("p%d sent %d messages and %d were delivered", from, sent[from], len(got[from]))
					}
					for k, seq := range got[from] {
						if seq != uint32(k) {
							t.Fatalf("p%d's %dth delivery is its message %d: a duplicate, a loss or a reorder", from, k, seq)
						}
					}
				}
				snap := reg.Snapshot()
				if lost := snap.Counter(obs.RuntimeLinkLost); lost != 0 {
					t.Fatalf("runtime.link.lost = %d over %d flaps", lost, flaps)
				}
				if lost := snap.Counter(obs.TransportFramesLost); lost != 0 {
					t.Fatalf("transport.frames_lost = %d over %d flaps", lost, flaps)
				}
				t.Logf("p0 sent %d messages through %d flaps", sent[0], flaps)
			})
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
			c := compressedCluster(t, n, tcp)
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
			if recounted, counted := c.DownLinks(); recounted != counted {
				t.Fatalf("partitioned=%v: %d links are down, but the cluster counts %d", partitioned, recounted, counted)
			}
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
// broken link until the heal sends it on, while the sender goes on encoding
// other messages out of the same freelist. Were a buffer recycled
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
		c := compressedCluster(t, n, tcp)
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
// slips a frame through afterwards (the barrier in cut), and nothing the
// wire took before the cut is still arriving (the awaited drain) — until
// the heal, which then delivers every one of them, once, in order.
func TestPartitionNothingCrossesAfterCut(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const n = 4 // {0,1} | {2,3}; two senders per process, all of it cross traffic
		var crossed atomic.Int64
		c, err := runtime.NewCluster(runtime.Config{
			N: n, TCP: tcp, Compress: true,
			OnDeliver: func(int, app.App, []byte) { crossed.Add(1) },
			Record:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// The senders run closed-loop against the delivered count, so the
		// backlog the cut strands stays small.
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

// TestPartitionOneWayCutKeepsReverse cuts one direction of a pair under
// traffic both ways. On TCP the two directions share one connection, which
// the cut drains one way and leaves alone: the reverse direction carries on
// with no heal call. From the instant BreakLink(0, 1) returns nothing
// crosses 0→1, and every 1→0 message is delivered exactly once, in order;
// after HealLink and Quiesce the 0→1 backlog arrives, once each, in order.
func TestPartitionOneWayCutKeepsReverse(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const perDir = 400
		var mu sync.Mutex
		var got [2][]int // got[to]: the sequence numbers delivered to p<to>, in order
		c, err := runtime.NewCluster(runtime.Config{
			N: 2, TCP: tcp, Compress: true,
			OnDeliver: func(self int, _ app.App, p []byte) {
				mu.Lock()
				got[self] = append(got[self], int(p[0])|int(p[1])<<8)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		delivered := func(to int) int {
			mu.Lock()
			defer mu.Unlock()
			return len(got[to])
		}
		waitFor := func(what string, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s", what)
				}
			}
		}

		// Each direction sends half its messages, the second half once the
		// cut is in place, so the cut always has traffic on both sides of it.
		cutDone := make(chan struct{})
		var wg sync.WaitGroup
		for from := 0; from < 2; from++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				for k := 0; k < perDir; k++ {
					if k == perDir/2 {
						<-cutDone
					}
					if err := c.Node(from).SendPayload(1-from, []byte{byte(k), byte(k >> 8)}); err != nil {
						t.Errorf("p%d→p%d: %v", from, 1-from, err)
						return
					}
					if k%16 == 15 {
						time.Sleep(100 * time.Microsecond) // keep both directions busy
					}
				}
			}(from)
		}
		waitFor("traffic both ways", func() bool { return delivered(0) >= 50 && delivered(1) >= 50 })
		if !c.BreakLink(0, 1) {
			t.Fatal("BreakLink(0,1) found the pair cut already")
		}
		atCut := delivered(1)
		close(cutDone)
		wg.Wait()
		waitFor("every 1→0 message, with no heal", func() bool { return delivered(0) >= perDir })
		c.Quiesce()
		if d := delivered(1); d != atCut {
			t.Fatalf("%d messages crossed 0→1 after BreakLink returned (%d at the cut, %d now)", d-atCut, atCut, d)
		}

		if !c.HealLink(0, 1) {
			t.Fatal("HealLink(0,1) found nothing to heal")
		}
		c.Quiesce()
		mu.Lock()
		defer mu.Unlock()
		for to := 0; to < 2; to++ {
			if len(got[to]) != perDir {
				t.Fatalf("p%d received %d messages, want %d", to, len(got[to]), perDir)
			}
			for k, seq := range got[to] {
				if seq != k {
					t.Fatalf("p%d's %dth delivery is message %d: a duplicate, a loss or a reorder", to, k, seq)
				}
			}
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
		c := compressedCluster(t, n, tcp)
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
		c := compressedCluster(t, 3, tcp)
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
