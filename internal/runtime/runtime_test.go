package runtime_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
)

// logStoreDir is where logStores puts process self's store under dir.
func logStoreDir(dir string, self int) string {
	return filepath.Join(dir, fmt.Sprintf("p%d", self))
}

// logStores is a Config.NewStore opening one log store per process under
// dir, with the device flush stubbed out: the tests using it are about the
// store's life under a cluster, not about durability.
func logStores(dir string) func(self int) (storage.Store, error) {
	return func(self int) (storage.Store, error) {
		return logstore.Open(logStoreDir(dir, self), logstore.Options{Sync: func(*os.File) error { return nil }})
	}
}

// recorded and unrecorded name a test cluster's Config.Record: a test that
// reads History or Oracle records, a benchmark never does.
const (
	recorded   = true
	unrecorded = false
)

// lgcCluster builds an in-process cluster with the RDT-LGC collector.
func lgcCluster(t testing.TB, n int, net runtime.NetworkOptions, record bool) *runtime.Cluster {
	t.Helper()
	c, err := runtime.NewCluster(runtime.Config{
		N: n,
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
		Net:    net,
		Record: record,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// driveRandom runs concurrent application goroutines, one per process,
// each randomly sending and checkpointing.
func driveRandom(t *testing.T, c *runtime.Cluster, opsPerNode int, seed int64) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < c.N(); i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)))
			node := c.Node(id)
			for k := 0; k < opsPerNode; k++ {
				if rng.Float64() < 0.3 {
					if err := node.Checkpoint(); err != nil {
						t.Errorf("p%d checkpoint: %v", id, err)
						return
					}
					continue
				}
				to := rng.Intn(c.N() - 1)
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
	wg.Wait()
	c.Quiesce()
}

// checkOracles replays the quiesced cluster's history and checks what every
// recovery must preserve: the pattern is RDT, the live vectors and last_s
// agree with the replay, no process retains more than n checkpoints, every
// collected checkpoint is obsolete (Theorem 4) and the collectors' reference
// counts are clean.
func checkOracles(t *testing.T, c *runtime.Cluster) {
	t.Helper()
	oracle := c.Oracle()
	if v, bad := oracle.FirstRDTViolation(); bad {
		t.Fatalf("pattern is not RDT: %v", v)
	}
	for i := 0; i < c.N(); i++ {
		node := c.Node(i)
		vol := ccp.CheckpointID{Process: i, Index: oracle.VolatileIndex(i)}
		if !node.CurrentDV().Equal(oracle.DV(vol)) {
			t.Errorf("p%d live DV %v != replayed %v", i, node.CurrentDV(), oracle.DV(vol))
		}
		if node.LastStable() != oracle.LastStable(i) {
			t.Errorf("p%d lastS %d != replayed %d", i, node.LastStable(), oracle.LastStable(i))
		}
		stored := map[int]bool{}
		for _, idx := range node.Store().Indices() {
			stored[idx] = true
		}
		if len(stored) > c.N() {
			t.Errorf("p%d retains %d > n checkpoints", i, len(stored))
		}
		for g := 0; g <= oracle.LastStable(i); g++ {
			if !stored[g] && !oracle.Obsolete(i, g) {
				t.Errorf("p%d collected non-obsolete s^%d", i, g)
			}
		}
		if err := node.Collector().(*core.LGC).CheckRefCounts(); err != nil {
			t.Error(err)
		}
	}
}

// TestLiveClusterMaintainsRDTAndTheorems runs a genuinely concurrent
// execution under FDAS + RDT-LGC with delays and loss, then rebuilds the
// pattern from the linearized history and checks: the pattern is RDT, every
// collected checkpoint is obsolete (Theorem 4), the n-bound holds, and the
// recorded history matches the live vectors.
func TestLiveClusterMaintainsRDTAndTheorems(t *testing.T) {
	const n = 4
	c := lgcCluster(t, n, runtime.NetworkOptions{
		MinDelay: 50 * time.Microsecond,
		MaxDelay: 500 * time.Microsecond,
		Loss:     0.05,
		Seed:     1,
	}, recorded)
	driveRandom(t, c, 60, 99)

	checkOracles(t, c)
	oracle := c.Oracle()
	for i := 0; i < n; i++ {
		// Theorem 3 invariant on the quiesced concurrent execution: every
		// retention obligation is met by the matching UC entry.
		lgc := c.Node(i).Collector().(*core.LGC)
		for f := 0; f < n; f++ {
			last := ccp.CheckpointID{Process: f, Index: oracle.LastStable(f)}
			for g := 0; g <= oracle.LastStable(i); g++ {
				next := ccp.CheckpointID{Process: i, Index: g + 1}
				cur := ccp.CheckpointID{Process: i, Index: g}
				if oracle.CausallyPrecedes(last, next) && !oracle.CausallyPrecedes(last, cur) {
					got, ok := lgc.RetainedFor(f)
					if !ok || got != g {
						t.Errorf("invariant: p%d UC[%d] should reference s^%d, got (%d,%v)", i, f, g, got, ok)
					}
				}
			}
		}
	}
	// Something must actually have happened concurrently.
	oracleMsgs := len(oracle.Messages())
	if oracleMsgs == 0 {
		t.Fatal("no messages delivered; network too lossy for the test to mean anything")
	}
}

// TestLiveRecovery crashes nodes mid-execution and checks the cluster
// resumes correctly: post-recovery pattern is RDT, faulty processes resumed
// from stable states, and execution continues.
func TestLiveRecovery(t *testing.T) {
	const n = 3
	c := lgcCluster(t, n, runtime.NetworkOptions{MaxDelay: 200 * time.Microsecond, Seed: 2}, recorded)
	driveRandom(t, c, 40, 7)

	rep, err := c.Recover([]int{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	oracle := c.Oracle()
	if v, bad := oracle.FirstRDTViolation(); bad {
		t.Fatalf("post-recovery pattern not RDT: %v", v)
	}
	if rep.Line[1] > oracle.LastStable(1) {
		t.Error("faulty process resumed from a volatile component")
	}
	for _, p := range rep.RolledBack {
		if got := c.Node(p).LastStable(); got != rep.Line[p] {
			t.Errorf("p%d lastS = %d after rollback, want %d", p, got, rep.Line[p])
		}
	}

	// The cluster accepts new work after recovery.
	driveRandom(t, c, 20, 11)
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("post-recovery execution not RDT: %v", v)
	}
}

// TestHaltedClusterRefusesWork checks ErrHalted surfaces while a recovery
// session is active. Recovery is driven from another goroutine with the
// application still trying to work; eventually a send must fail halted or
// all succeed after the session (both acceptable) — here we test the flag
// directly through a cluster with an in-progress session window.
func TestSendValidation(t *testing.T) {
	c := lgcCluster(t, 2, runtime.NetworkOptions{}, unrecorded)
	if err := c.Node(0).Send(0); err == nil {
		t.Error("self-send should be rejected")
	}
	if err := c.Node(0).Send(5); err == nil {
		t.Error("out-of-range send should be rejected")
	}
}

// TestLogStoreCluster runs the live cluster on real on-disk stores and
// verifies that Close leaves exactly the retained set behind: the cluster
// closes the stores it opened, which commits the collector's staged
// tombstones, so a reopen finds no collected checkpoint resurrected.
func TestLogStoreCluster(t *testing.T) {
	dir := t.TempDir()
	c, err := runtime.NewCluster(runtime.Config{
		N: 2,
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
		NewStore: logStores(dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	driveRandom(t, c, 30, 3)
	want := [][]int{c.Node(0).Store().Indices(), c.Node(1).Store().Indices()}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		re, err := logstore.Open(logStoreDir(dir, i), logstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := re.Indices()
		re.Close()
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("p%d: reopened store has %v, want %v", i, got, want[i])
		}
	}
}
