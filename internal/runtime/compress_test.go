package runtime_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/runtime"
	"repro/internal/storage"
)

func compressCluster(t testing.TB, n int, net runtime.NetworkOptions, tcp bool) *runtime.Cluster {
	t.Helper()
	c, err := runtime.NewCluster(runtime.Config{
		N:        n,
		Compress: true,
		TCP:      tcp,
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
		Net: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCompressRejectsLossyNetwork checks the loud config error: incremental
// piggybacking cannot survive silent message loss, so a lossy network is
// refused at construction rather than corrupting causal knowledge later.
func TestCompressRejectsLossyNetwork(t *testing.T) {
	_, err := runtime.NewCluster(runtime.Config{
		N:        2,
		Compress: true,
		Net:      runtime.NetworkOptions{Loss: 0.05},
	})
	if err == nil {
		t.Fatal("Compress with Loss > 0 should be rejected")
	}
}

// TestCompressRejectsLossBurst checks SetNetwork enforces the same contract
// in flight: a fault-injection harness cannot turn loss on under a
// compressed cluster.
func TestCompressRejectsLossBurst(t *testing.T) {
	c := compressCluster(t, 2, runtime.NetworkOptions{}, false)
	if err := c.SetNetwork(0, time.Millisecond, 0.2); err == nil {
		t.Fatal("loss burst on a compressed cluster should be rejected")
	}
	if err := c.SetNetwork(0, time.Millisecond, 0); err != nil {
		t.Fatalf("delay burst should be accepted: %v", err)
	}
}

// TestCompressedLiveCluster runs a genuinely concurrent compressed
// execution with random delivery delays — the case that requires the
// per-pair FIFO sequencing, since without it delayed messages to the same
// destination reorder — and checks the live vectors agree exactly with the
// ground-truth pattern replayed from the linearized history. Any dropped,
// reordered or mis-expanded sparse piggyback would surface either as a
// delivery panic (the kernel's FIFO check) or as a vector divergence here.
func TestCompressedLiveCluster(t *testing.T) {
	const n = 4
	c := compressCluster(t, n, runtime.NetworkOptions{
		MinDelay: 20 * time.Microsecond,
		MaxDelay: 400 * time.Microsecond,
		Seed:     3,
	}, false)
	driveRandom(t, c, 60, 17)

	oracle := c.Oracle()
	if v, bad := oracle.FirstRDTViolation(); bad {
		t.Fatalf("compressed live execution produced non-RDT pattern: %v", v)
	}
	if len(oracle.Messages()) == 0 {
		t.Fatal("no messages delivered")
	}
	for i := 0; i < n; i++ {
		node := c.Node(i)
		vol := ccp.CheckpointID{Process: i, Index: oracle.VolatileIndex(i)}
		if !node.CurrentDV().Equal(oracle.DV(vol)) {
			t.Errorf("p%d live DV %v != replayed %v — sparse piggybacks corrupted causal knowledge",
				i, node.CurrentDV(), oracle.DV(vol))
		}
		if node.LastStable() != oracle.LastStable(i) {
			t.Errorf("p%d lastS %d != replayed %d", i, node.LastStable(), oracle.LastStable(i))
		}
		if err := node.Collector().(*core.LGC).CheckRefCounts(); err != nil {
			t.Error(err)
		}
	}
	if c.PiggybackEntries() == 0 {
		t.Error("compressed cluster reported no piggybacked entries")
	}
}

// TestCompressedTCPMesh runs compression over the loopback TCP mesh: the
// sparse entries cross a real network path in per-connection FIFO order.
func TestCompressedTCPMesh(t *testing.T) {
	const n = 3
	c := compressCluster(t, n, runtime.NetworkOptions{
		MaxDelay: 100 * time.Microsecond,
		Seed:     5,
	}, true)
	defer func() { _ = c.Close() }()
	driveRandom(t, c, 40, 23)

	oracle := c.Oracle()
	for i := 0; i < n; i++ {
		vol := ccp.CheckpointID{Process: i, Index: oracle.VolatileIndex(i)}
		if !c.Node(i).CurrentDV().Equal(oracle.DV(vol)) {
			t.Errorf("p%d live DV %v != replayed %v over TCP", i, c.Node(i).CurrentDV(), oracle.DV(vol))
		}
	}
}

// TestCompressedRecoverySession crashes a compressed cluster mid-run and
// checks recovery resets the per-pair encoders: post-session traffic must
// still merge correctly (a stale delta chain would panic or diverge).
func TestCompressedRecoverySession(t *testing.T) {
	const n = 3
	c := compressCluster(t, n, runtime.NetworkOptions{MaxDelay: 100 * time.Microsecond, Seed: 9}, false)
	driveRandom(t, c, 40, 31)

	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	// Survivors keep talking to each other and at the hole in the mesh.
	var wg sync.WaitGroup
	for _, p := range []int{0, 2} {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				_ = c.Node(p).Send((p + 1) % n)
			}
		}(p)
	}
	wg.Wait()
	c.Quiesce()

	if _, err := c.Restart(true); err != nil {
		t.Fatal(err)
	}
	driveRandom(t, c, 30, 37)
	oracle := c.Oracle()
	if v, bad := oracle.FirstRDTViolation(); bad {
		t.Fatalf("post-recovery compressed pattern not RDT: %v", v)
	}
	for i := 0; i < n; i++ {
		vol := ccp.CheckpointID{Process: i, Index: oracle.VolatileIndex(i)}
		if !c.Node(i).CurrentDV().Equal(oracle.DV(vol)) {
			t.Errorf("p%d live DV diverged after compressed recovery", i)
		}
	}
}
