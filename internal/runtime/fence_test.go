package runtime_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
)

// syncGate is a logstore Sync hook a test can shut, reopen and make fail:
// while shut, the committer of the store behind it sits in its flush.
type syncGate struct {
	mu      sync.Mutex
	cond    sync.Cond
	shut    bool
	err     error // what a flush returns once it is through
	waiting int   // flushes sitting at the gate
}

func newSyncGate() *syncGate {
	g := &syncGate{}
	g.cond.L = &g.mu
	return g
}

func (g *syncGate) sync(*os.File) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waiting++
	g.cond.Broadcast()
	for g.shut {
		g.cond.Wait()
	}
	g.waiting--
	return g.err
}

func (g *syncGate) close() {
	g.mu.Lock()
	g.shut = true
	g.mu.Unlock()
}

// open lets the waiting flush, and every later one, through with err.
func (g *syncGate) open(err error) {
	g.mu.Lock()
	g.shut, g.err = false, err
	g.cond.Broadcast()
	g.mu.Unlock()
}

// awaitFlush returns once a flush sits at the shut gate.
func (g *syncGate) awaitFlush() {
	g.mu.Lock()
	for g.waiting == 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// gatedCluster is an RDT-LGC cluster on log stores, each behind its own gate.
func gatedCluster(t *testing.T, n int, cfg runtime.Config) (*runtime.Cluster, []*syncGate) {
	t.Helper()
	dir := t.TempDir()
	gates := make([]*syncGate, n)
	for i := range gates {
		gates[i] = newSyncGate()
	}
	cfg.N = n
	cfg.LocalGC = func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) }
	cfg.NewStore = func(self int) (storage.Store, error) {
		return logstore.Open(logStoreDir(dir, self), logstore.Options{Sync: gates[self].sync})
	}
	c, err := runtime.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, g := range gates {
			g.open(nil)
		}
		_ = c.Close()
	})
	return c, gates
}

// until polls cond to a deadline: for state only a getter exposes.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// stageForcedCheckpoint leaves p0 with a forced checkpoint (index 1) staged
// behind its shut gate and frames to p1 and p2 fenced, and returns how many
// it sent to p1. p0 has sent in its first interval, so under FDAS the next
// message bringing it a new dependency forces a checkpoint before delivery.
func stageForcedCheckpoint(t *testing.T, c *runtime.Cluster, gate *syncGate) (toP1 int) {
	t.Helper()
	if err := c.Node(0).Send(1); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	gate.close()
	if err := c.Node(1).Send(0); err != nil {
		t.Fatal(err)
	}
	until(t, "p0 takes the forced checkpoint", func() bool {
		_, forced, _ := c.Node(0).Stats()
		return forced == 1
	})
	gate.awaitFlush()
	// The node is not asleep in the flush: it goes on delivering ...
	if err := c.Node(2).Send(0); err != nil {
		t.Fatal(err)
	}
	until(t, "p0 delivers p2's message", func() bool { return c.Node(0).CurrentDV()[2] == 1 })
	// ... and sending, into the fence.
	for k := 0; k < 5; k++ {
		if err := c.Node(0).Send(1); err != nil {
			t.Fatal(err)
		}
		toP1++
	}
	if err := c.Node(0).Send(2); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).CurrentDV()[0]; got != 2 {
		t.Fatalf("p0's own entry = %d, want 2 (in the interval after checkpoint 1)", got)
	}
	return toP1
}

// TestFenceHoldsUntilDurable is the output-commit rule, observed from
// outside: while p0's checkpoint 1 is staged and not durable, p0 delivers and
// its sends return, but nobody learns DV[0] = 2 and the frames stay in
// flight; once the flush is through, they all arrive, in send order.
func TestFenceHoldsUntilDurable(t *testing.T) {
	reg := obs.NewRegistry()
	c, gates := gatedCluster(t, 3, runtime.Config{Obs: obs.Options{Registry: reg}})
	toP1 := stageForcedCheckpoint(t, c, gates[0])

	quiesced := make(chan struct{})
	go func() { c.Quiesce(); close(quiesced) }()
	ckpt := make(chan error, 1)
	go func() { ckpt <- c.Node(0).Checkpoint() }() // staged behind the forced one
	until(t, "the basic checkpoint is staged", func() bool {
		basic, _, _ := c.Node(0).Stats()
		return basic == 1
	})

	// p0's last durable checkpoint is s^0, so 1 is the most a peer may know.
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, p := range []int{1, 2} {
			if got := c.Node(p).CurrentDV()[0]; got > 1 {
				t.Fatalf("p%d knows DV[0] = %d while checkpoint 1 of p0 is not durable", p, got)
			}
		}
		select {
		case <-quiesced:
			t.Fatal("Quiesce returned with frames fenced")
		case err := <-ckpt:
			t.Fatalf("Checkpoint returned %v before its flush", err)
		default:
		}
	}
	if got := reg.Gauge(obs.RuntimeFenceDepth).Value(); got != int64(toP1)+1 {
		t.Fatalf("runtime.fence_depth = %d, want %d", got, toP1+1)
	}
	if got := reg.Gauge(obs.StorageDurableLag).Value(); got != 2 {
		t.Fatalf("storage.durable_lag = %d, want 2 (the forced and the basic checkpoint)", got)
	}

	gates[0].open(nil)
	<-quiesced
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := reg.Gauge(obs.RuntimeFenceDepth).Value(); got != 0 {
		t.Fatalf("runtime.fence_depth = %d after the flush, want 0", got)
	}
	// p1's forced checkpoint, taken on delivery of the released frames, is
	// being flushed in its turn.
	until(t, "storage.durable_lag is back at 0", func() bool { return reg.Gauge(obs.StorageDurableLag).Value() == 0 })
	if got := reg.Histogram(obs.RuntimeFenceWaitNs).Count(); got != uint64(toP1)+1 {
		t.Fatalf("runtime.fence_wait_ns holds %d samples, want %d", got, toP1+1)
	}
	if got := c.Node(1).CurrentDV()[0]; got != 2 {
		t.Fatalf("p1's DV[0] = %d after the release, want 2", got)
	}
	stream := pairStreams(c.History())[[2]int{0, 1}]
	if len(stream) != 1+toP1 || !sort.IntsAreSorted(stream) {
		t.Fatalf("p0→p1 delivered %v, want %d messages in send order", stream, 1+toP1)
	}
	checkOracles(t, c)
}

// TestFenceCrashBetweenStageAndFlush crashes p0 with checkpoint 1 staged and
// frames fenced: the frames are volatile state and are never delivered, the
// drain does not wait for the flush, and once the flush is through — the
// schedule "crashed just after it" — the restart recovers on the oracle's
// line with every invariant intact.
func TestFenceCrashBetweenStageAndFlush(t *testing.T) {
	rec := obs.NewRecorder(256)
	c, gates := gatedCluster(t, 3, runtime.Config{Obs: obs.Options{Recorder: rec}})
	stageForcedCheckpoint(t, c, gates[0])

	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	quiesceWithin(t, c, 10*time.Second) // the flush is still stuck
	dropped := 0
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvFenceDrop && ev.P == 0 {
			dropped += ev.Msg
		}
	}
	if dropped != 6 {
		t.Fatalf("flight recorder shows %d fenced frames dropped at the crash, want 6", dropped)
	}
	wantLine := c.Oracle().RecoveryLine([]int{0})

	gates[0].open(nil)
	rep, err := c.Restart(true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLine {
		if rep.Line[i] != wantLine[i] {
			t.Fatalf("restored line %v, oracle line %v", rep.Line, wantLine)
		}
	}
	if stream := pairStreams(c.History())[[2]int{0, 1}]; len(stream) != 1 {
		t.Fatalf("p0→p1 delivered %v: a fenced frame of the crashed process arrived", stream)
	}
	checkOracles(t, c)
	driveRandom(t, c, 20, 7)
	checkOracles(t, c)
}

// TestFenceFailStop: a flush that fails never opens the fence. The frames
// behind it are dropped with their accounting, the waiting Checkpoint gets
// the error, and so does everything the node is asked to do afterwards.
func TestFenceFailStop(t *testing.T) {
	c, gates := gatedCluster(t, 2, runtime.Config{})
	boom := errors.New("injected flush failure")
	gates[0].close()
	ckpt := make(chan error, 1)
	go func() { ckpt <- c.Node(0).Checkpoint() }()
	gates[0].awaitFlush()
	if err := c.Node(0).Send(1); err != nil {
		t.Fatalf("send into the closed fence: %v", err)
	}
	gates[0].open(boom)
	if err := <-ckpt; !errors.Is(err, boom) {
		t.Fatalf("Checkpoint over a failed flush = %v, want the injected failure", err)
	}
	quiesceWithin(t, c, 10*time.Second)
	if got := c.Node(1).CurrentDV()[0]; got != 0 {
		t.Fatalf("p1's DV[0] = %d: a frame got past a fence that never opened", got)
	}
	if err := c.Node(0).Send(1); !errors.Is(err, boom) {
		t.Fatalf("Send after the failure = %v, want the sticky failure", err)
	}
	if err := c.Node(0).Checkpoint(); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint after the failure = %v, want the sticky failure", err)
	}
	quiesceWithin(t, c, 10*time.Second)
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	_, _ = c.Restart(true) // may refuse — the store is gone — but must return
	if err := c.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the sticky failure among its errors", err)
	}
}

// TestFencePreservesPairOrder: frames released from a fence together draw
// their network delays together, 0.8 ms apart at the extremes; the per-pair
// due-time clamp must keep every pair's deliveries in send order all the
// same (the benchmark's lost-message check counts on it).
func TestFencePreservesPairOrder(t *testing.T) {
	const n, perNode = 4, 2600
	var misordered atomic.Int64
	last := make([][]uint64, n) // last[to][from], written under to's lock
	for i := range last {
		last[i] = make([]uint64, n)
	}
	dir := t.TempDir()
	c, err := runtime.NewCluster(runtime.Config{
		N:       n,
		LocalGC: func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		NewStore: func(self int) (storage.Store, error) {
			return logstore.Open(logStoreDir(dir, self), logstore.Options{Sync: func(*os.File) error {
				time.Sleep(time.Millisecond)
				return nil
			}})
		},
		Net: runtime.NetworkOptions{MinDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond, Seed: 3},
		OnDeliver: func(self int, _ app.App, p []byte) {
			from, seq := int(p[0]), binary.LittleEndian.Uint64(p[1:])
			if seq <= last[self][from] {
				misordered.Add(1)
			}
			last[self][from] = seq
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for seq := uint64(1); seq <= perNode; seq++ {
				to := (id + 1 + rng.Intn(n-1)) % n
				p := make([]byte, 9)
				p[0] = byte(id)
				binary.LittleEndian.PutUint64(p[1:], seq)
				if err := c.Node(id).SendPayload(to, p); err != nil {
					t.Errorf("p%d send: %v", id, err)
					return
				}
				if seq%64 == 0 {
					// Pace the open loop to what a 1 ms flush lets through.
					if err := c.Node(id).Checkpoint(); err != nil {
						t.Errorf("p%d checkpoint: %v", id, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	c.Quiesce()
	if k := misordered.Load(); k != 0 {
		t.Fatalf("%d of %d messages overtook an earlier one of their pair", k, n*perNode)
	}
	var forcedTotal int
	for to := range last {
		for from := range last[to] {
			if from != to && last[to][from] == 0 {
				t.Errorf("pair p%d→p%d delivered nothing", from, to)
			}
		}
		_, forced, _ := c.Node(to).Stats()
		forcedTotal += forced
	}
	if forcedTotal == 0 {
		t.Fatal("no forced checkpoint was taken: the fence was never exercised from the delivery path")
	}
}

// TestFenceSlowFlushSoak runs concurrent senders over log stores whose flush
// takes 1–2 ms and crashes a process every few milliseconds, mid-traffic,
// with checkpoints staged and frames fenced; every session is held to the
// oracle's line and the full battery.
func TestFenceSlowFlushSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const n, cycles = 4, 40
	dir := t.TempDir()
	c, err := runtime.NewCluster(runtime.Config{
		N:       n,
		LocalGC: func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		NewStore: func(self int) (storage.Store, error) {
			rng := rand.New(rand.NewSource(int64(self))) // the committer alone draws from it
			return logstore.Open(logStoreDir(dir, self), logstore.Options{Sync: func(*os.File) error {
				time.Sleep(time.Millisecond + time.Duration(rng.Intn(1000))*time.Microsecond)
				return nil
			}})
		},
		Net: runtime.NetworkOptions{MinDelay: 100 * time.Microsecond, MaxDelay: 500 * time.Microsecond, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan := rand.New(rand.NewSource(17))
	for cycle := 0; cycle < cycles; cycle++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(cycle*n + id)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					var err error
					if rng.Intn(8) == 0 {
						err = c.Node(id).Checkpoint()
					} else {
						err = c.Node(id).Send((id + 1 + rng.Intn(n-1)) % n)
					}
					if err != nil && !errors.Is(err, runtime.ErrCrashed) {
						t.Errorf("p%d: %v", id, err)
						return
					}
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
			}(i)
		}
		time.Sleep(time.Duration(2+plan.Intn(4)) * time.Millisecond)
		victim := plan.Intn(n)
		if err := c.Crash(victim); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(plan.Intn(2000)) * time.Microsecond)
		close(stop)
		wg.Wait()
		c.Quiesce()
		wantLine := c.Oracle().RecoveryLine([]int{victim})
		rep, err := c.Restart(true)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for i := range wantLine {
			if rep.Line[i] != wantLine[i] {
				t.Fatalf("cycle %d: restored line %v, oracle line %v", cycle, rep.Line, wantLine)
			}
		}
		checkOracles(t, c)
		if t.Failed() {
			t.Fatalf("cycle %d (victim p%d) failed", cycle, victim)
		}
	}
}
