package runtime_test

import (
	"bytes"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// quiesceWithin fails the test if Quiesce does not return inside d — the
// watchdog that turns an in-flight accounting leak into a loud failure
// instead of a hung test binary.
func quiesceWithin(t *testing.T, c *runtime.Cluster, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.Quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Quiesce did not return: in-flight accounting leaked")
	}
}

// TestQuiesceReturnsAfterLinkKill pins the inflight-accounting fix: frames
// written to the mesh and then stranded by a dying link must be reconciled
// (transport.OnLinkDown), or Quiesce hangs forever on their never-called
// Done. The link dies mid-load, with senders still pushing into it.
func TestQuiesceReturnsAfterLinkKill(t *testing.T) {
	const n = 3
	c, err := runtime.NewCluster(runtime.Config{
		N: n, TCP: true,
		LocalGC: func(self, nn int, st storage.Store) gc.Local {
			return core.New(self, nn, st)
		},
		Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Node(id).Send((id + 1) % n); err != nil {
					t.Errorf("p%d send: %v", id, err)
					return
				}
				if k%50 == 49 {
					time.Sleep(time.Millisecond)
				}
			}
		}(i)
	}
	// The 0->1 pair dials lazily, and on a loaded machine 5 ms was not
	// always enough for it. p1 hears only from p0, so its vector learning of
	// p0 is the read-only proof that the link is up.
	for deadline := time.Now().Add(20 * time.Second); c.Node(1).CurrentDV()[0] == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no message from p0 reached p1 in 20s")
		}
		time.Sleep(time.Millisecond)
	}
	if !c.BreakLink(0, 1) {
		t.Error("no live 0->1 link to break")
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	quiesceWithin(t, c, 10*time.Second)

	h := c.History()
	sends, recvs := 0, 0
	for _, op := range h.Ops {
		switch op.Kind {
		case ccp.OpSend:
			sends++
		case ccp.OpRecv:
			recvs++
		}
	}
	if recvs > sends {
		t.Fatalf("history inconsistent: %d receives of %d sends", recvs, sends)
	}
	if recvs == 0 {
		t.Fatal("no messages delivered at all")
	}
}

// TestQuiesceReturnsAfterClose kills the whole mesh under load: frames in
// flight at Close are lost, and every one of them must still be accounted.
func TestQuiesceReturnsAfterClose(t *testing.T) {
	const n = 3
	c, err := runtime.NewCluster(runtime.Config{N: n, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 200; k++ {
			if err := c.Node(i).Send((i + 1) % n); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	quiesceWithin(t, c, 10*time.Second)
}

// TestPooledDelayedFIFOCompressed stresses the sender pool's pair-FIFO
// guarantee under random delivery delays: compressed kernels verify FIFO
// on every delivery and fail loudly, so any queue-order violation panics
// the test.
func TestPooledDelayedFIFOCompressed(t *testing.T) {
	const n = 4
	c, err := runtime.NewCluster(runtime.Config{
		N: n, Compress: true,
		Net: runtime.NetworkOptions{MaxDelay: 300 * time.Microsecond, Seed: 11},
		LocalGC: func(self, nn int, st storage.Store) gc.Local {
			return core.New(self, nn, st)
		},
		Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveRandom(t, c, 80, 23)
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("pooled compressed execution produced non-RDT pattern: %v", v)
	}
}

// TestSaturationSmoke floods a TCP cluster through the batched path —
// windowed senders on every node, checkpoints interleaved, a recovery
// session in the middle — and checks the linearized history stays
// consistent. Gated behind -short like the soaks; the race lane runs it.
func TestSaturationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation smoke skipped in -short mode")
	}
	const (
		n       = 4
		perNode = 400
	)
	c, err := runtime.NewCluster(runtime.Config{
		N: n, TCP: true,
		LocalGC: func(self, nn int, st storage.Store) gc.Local {
			return core.New(self, nn, st)
		},
		Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	flood := func(seed int64) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(id)))
				for k := 0; k < perNode; k++ {
					to := rng.Intn(n - 1)
					if to >= id {
						to++
					}
					if err := c.Node(id).Send(to); err != nil {
						t.Errorf("p%d send: %v", id, err)
						return
					}
					if k%64 == 63 {
						if err := c.Node(id).Checkpoint(); err != nil {
							t.Errorf("p%d checkpoint: %v", id, err)
							return
						}
					}
				}
			}(i)
		}
		wg.Wait()
	}

	flood(101)
	quiesceWithin(t, c, 30*time.Second)
	h := c.History()
	sends, recvs := 0, 0
	for _, op := range h.Ops {
		switch op.Kind {
		case ccp.OpSend:
			sends++
		case ccp.OpRecv:
			recvs++
		}
	}
	if sends != n*perNode {
		t.Fatalf("history records %d sends, want %d", sends, n*perNode)
	}
	if recvs != sends {
		t.Fatalf("lossless saturated run delivered %d of %d", recvs, sends)
	}
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("saturated execution produced non-RDT pattern: %v", v)
	}

	// A recovery session in the middle, then saturate again on the same
	// sockets.
	if _, err := c.Recover([]int{1}, true); err != nil {
		t.Fatal(err)
	}
	flood(202)
	quiesceWithin(t, c, 30*time.Second)
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("post-recovery saturated pattern not RDT: %v", v)
	}
}

// senderWorkers counts the goroutines NewCluster started — its sender-pool
// workers, the only goroutines it starts itself — in every cluster the test
// binary holds: unlike the goroutine count, it does not move when another
// test's teardown finishes late. A worker that has not run yet shows no
// sendWorker frame, so the count reads who created it.
func senderWorkers() int {
	buf := make([]byte, 1<<16)
	for {
		k := goruntime.Stack(buf, true)
		if k < len(buf) {
			return bytes.Count(buf[:k], []byte("created by repro/internal/runtime.NewCluster "))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSenderWorkersLiveUntilClose pins the sender pool's lifecycle: one worker
// per destination from NewCluster to Close. An idle cluster runs exactly n
// sender workers; a zero-delay network arms no timer, however often the
// queues empty; and Close leaves nothing running — on both wires, the
// goroutine count is back at its base within closeSettle of Close returning,
// with no idle period to wait out. On a delayed network Close neither waits
// out the queued frames' delay nor leaves a worker parked on it.
func TestSenderWorkersLiveUntilClose(t *testing.T) {
	const n, closeSettle = 4, 20 * time.Millisecond
	bothWires(t, func(t *testing.T, tcp bool) {
		base, workers := goruntime.NumGoroutine(), senderWorkers()
		reg := obs.NewRegistry()
		c, err := runtime.NewCluster(runtime.Config{N: n, TCP: tcp, Obs: obs.Options{Registry: reg}})
		if err != nil {
			t.Fatal(err)
		}
		if got := senderWorkers() - workers; got != n {
			t.Errorf("an idle cluster of %d runs %d sender workers, want one per destination", n, got)
		}
		if got := reg.Counter(obs.RuntimeWorkerSpawns).Value(); got != n {
			t.Errorf("%d workers spawned, want %d", got, n)
		}
		for i := 0; i < 2000; i++ {
			if err := c.Node(i % n).Send((i + 1) % n); err != nil {
				t.Fatal(err)
			}
			c.Quiesce()
		}
		if got := reg.Counter(obs.RuntimeTimerResets).Value(); got != 0 {
			t.Errorf("%d timer resets over 2000 emptied queues on a zero-delay network, want 0", got)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		leakcheck.SettleWithin(t, base, closeSettle)
	})

	t.Run("delayed frames queued", func(t *testing.T) {
		const delay = 100 * time.Millisecond
		base := goruntime.NumGoroutine()
		reg := obs.NewRegistry()
		c, err := runtime.NewCluster(runtime.Config{
			N: n, Obs: obs.Options{Registry: reg},
			Net: runtime.NetworkOptions{MinDelay: delay, MaxDelay: 2 * delay, Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		ringSends(t, c, 40)
		// Every destination has frames queued behind the delay. Wait for n
		// timer arms, so that Close finds workers parked on a due time and
		// not only ones that have yet to look at their queues.
		for deadline := time.Now().Add(2 * time.Second); reg.Counter(obs.RuntimeTimerResets).Value() < n; goruntime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d workers wait on a due time", reg.Counter(obs.RuntimeTimerResets).Value(), n)
			}
		}
		if c.Queued() == 0 {
			t.Fatal("no frame is queued behind the delay")
		}
		t0 := time.Now()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(t0); took >= delay/2 {
			t.Fatalf("Close took %v: it waited out the network delay (%v)", took, delay)
		}
		closedEmpty(t, c)
		leakcheck.SettleWithin(t, base, closeSettle)
	})
}
