package runtime_test

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// loadCounter counts the checkpoints read whole from a store, and apart
// from them the vectors read alone.
type loadCounter struct {
	storage.Store
	loads, dvLoads atomic.Int64
}

func (s *loadCounter) Load(index int) (storage.Checkpoint, error) {
	s.loads.Add(1)
	return s.Store.Load(index)
}

func (s *loadCounter) LoadDV(index int, dst vclock.DV) (vclock.DV, error) {
	s.dvLoads.Add(1)
	return s.Store.LoadDV(index, dst)
}

// kvKeys name a test application's keys, built once so that NewApp costs
// what a factory over constant keys does: 8 bytes each, so 170 of them
// snapshot to 4 KiB.
var kvKeys = func() []string {
	keys := make([]string, 170)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	return keys
}()

// kvCluster builds an unrecorded in-process cluster under RDT-LGC with a KV
// application of keys keys on every node. stores, if non-nil, opens each
// node's stable store (default: a MemStore); newApps, if non-nil, counts the
// application factory's calls.
func kvCluster(tb testing.TB, n, keys int, stores func(self int) (storage.Store, error), newApps *atomic.Int64) *runtime.Cluster {
	tb.Helper()
	c, err := runtime.NewCluster(runtime.Config{
		N: n,
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
		NewStore: stores,
		NewApp: func(int) app.App {
			if newApps != nil {
				newApps.Add(1)
			}
			kv := app.NewKV()
			for _, k := range kvKeys[:keys] {
				kv.Set(k, 1)
			}
			return kv
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	return c
}

// driveKV runs ops seeded steps on one goroutine — an update of one of keys
// keys of a random node's application (none when keys is 0), a send or a
// checkpoint. Every send is delivered before the next step, so a seed
// always builds the same pattern and the same stores.
func driveKV(tb testing.TB, c *runtime.Cluster, rng *rand.Rand, ops, keys int) {
	tb.Helper()
	n := c.N()
	for k := 0; k < ops; k++ {
		from := rng.Intn(n)
		nd := c.Node(from)
		var err error
		switch r := rng.Float64(); {
		case r < 0.4 && keys > 0:
			key, v := kvKeys[rng.Intn(keys)], rng.Int63n(1000)
			err = nd.Update(func(a app.App) { a.(*app.KV).Set(key, v) })
		case r < 0.8:
			err = nd.Send((from + 1 + rng.Intn(n-1)) % n)
			c.Quiesce()
		default:
			err = nd.Checkpoint()
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRestartLoadsRetainedPlusOne pins what a restart reads from the
// restarted process's store: with k checkpoints retained, k + 1 reads — one
// whole record, for Rehydrate, and one vector alone per survivor for the
// collector's Algorithm 3, which compares vectors and reads no state. The
// recovery line does not read the sole faulty process's newest checkpoint
// (its vector cannot change the answer), and the application is restored
// from the checkpoint Rehydrate read, so attaching one adds no read.
func TestRestartLoadsRetainedPlusOne(t *testing.T) {
	for _, withApp := range []bool{false, true} {
		t.Run(fmt.Sprintf("app=%v", withApp), func(t *testing.T) {
			const n = 4
			stores := make([]*loadCounter, n)
			open := func(self int) (storage.Store, error) {
				stores[self] = &loadCounter{Store: storage.NewMemStore()}
				return stores[self], nil
			}
			cfg := runtime.Config{
				N:        n,
				LocalGC:  func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
				NewStore: open,
			}
			keys := 0
			if withApp {
				keys = 16
				cfg.NewApp = func(int) app.App { return app.NewKV() }
			}
			c, err := runtime.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(67))
			maxK := 0
			for cycle := 0; cycle < 20; cycle++ {
				driveKV(t, c, rng, 40, keys)
				victim := rng.Intn(n)
				if err := c.Crash(victim); err != nil {
					t.Fatal(err)
				}
				idx := stores[victim].Indices()
				maxK = max(maxK, len(idx))
				loads, dvLoads := stores[victim].loads.Load(), stores[victim].dvLoads.Load()
				rep, err := c.Restart(cycle%2 == 0)
				if err != nil {
					t.Fatal(err)
				}
				if got := stores[victim].loads.Load() - loads; got != 1 {
					t.Fatalf("cycle %d: restart of p%d with %d checkpoints retained %v made %d whole-record loads, want 1",
						cycle, victim, len(idx), idx, got)
				}
				if got, want := stores[victim].dvLoads.Load()-dvLoads, int64(len(idx)); got != want {
					t.Fatalf("cycle %d: restart of p%d with %d checkpoints retained %v made %d vector loads, want %d",
						cycle, victim, len(idx), idx, got, want)
				}
				if newest := idx[len(idx)-1]; rep.Line[victim] != newest {
					t.Fatalf("cycle %d: p%d restarted at %d, want its newest checkpoint %d", cycle, victim, rep.Line[victim], newest)
				}
			}
			if maxK < 3 {
				t.Fatalf("no restart found more than %d checkpoints retained: the drive no longer exercises Algorithm 3's reads", maxK)
			}
		})
	}
}

// TestRestartKeepsTheApplicationInstance holds the application object
// across crashes: NewApp runs once per process, at construction, however
// many crashes and restarts follow; a crashed node shows no application;
// and a restarted one shows the same object, its state that of the line's
// checkpoint.
func TestRestartKeepsTheApplicationInstance(t *testing.T) {
	const n, keys = 5, 12
	var newApps atomic.Int64
	c := kvCluster(t, n, keys, nil, &newApps)
	if got := newApps.Load(); got != n {
		t.Fatalf("construction called NewApp %d times, want %d", got, n)
	}
	rng := rand.New(rand.NewSource(71))
	for cycle := 0; cycle < 30; cycle++ {
		driveKV(t, c, rng, 30, keys)
		victim := rng.Intn(n)
		before := c.Node(victim).App()
		if err := c.Crash(victim); err != nil {
			t.Fatal(err)
		}
		if a := c.Node(victim).App(); a != nil {
			t.Fatalf("cycle %d: crashed p%d shows an application (%T)", cycle, victim, a)
		}
		rep, err := c.Restart(cycle%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		after, ok := c.Node(victim).App().(*app.KV)
		if !ok || after != before {
			t.Fatalf("cycle %d: restarted p%d shows %p, want the pre-crash object %p", cycle, victim, after, before)
		}
		for _, j := range rep.RolledBack {
			cp, err := c.Node(j).Store().Load(rep.Line[j])
			if err != nil {
				t.Fatal(err)
			}
			want := app.NewKV()
			if err := want.Restore(cp.State); err != nil {
				t.Fatal(err)
			}
			if !c.Node(j).App().(*app.KV).Equal(want) {
				t.Fatalf("cycle %d: p%d's application after the restart differs from checkpoint %d's state", cycle, j, rep.Line[j])
			}
		}
	}
	if got := newApps.Load(); got != n {
		t.Fatalf("NewApp ran %d times over the cluster's life, want %d: once per process", got, n)
	}
}

// TestRestartAtRestAllocs pins what one crash and restart allocates at rest
// on an n = 8 in-process cluster with a 170-key KV application: the
// session's line and report, the fresh protocol and collector (with the
// scratch its first rollback reads vectors into, its CCBs) and the index
// lists the restart reads — and nothing for the application, whose object is
// kept and whose state is restored in place from the record the store lends
// Rehydrate, nor for the vector, which is parked across the crash, nor for
// the line's and the session's scratch, which the cluster keeps (16 and 15;
// 25 and 24 when Load copied the record out). With the last-interval vector
// (li=true, what the benchmark and the CLIs run) the session also builds LI,
// and the victim, which then retains one checkpoint rather than two, builds
// one CCB fewer and needs less scratch. Neither count may grow with the
// collector's held set.
func TestRestartAtRestAllocs(t *testing.T) {
	const n, keys = 8, 170
	for _, tc := range []struct {
		li   bool
		want float64
	}{{false, 16}, {true, 15}} {
		t.Run(fmt.Sprintf("li=%v", tc.li), func(t *testing.T) {
			c := kvCluster(t, n, keys, nil, nil)
			driveKV(t, c, rand.New(rand.NewSource(73)), 8*n, keys)
			restart := func() {
				if err := c.Crash(3); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Restart(tc.li); err != nil {
					t.Fatal(err)
				}
			}
			restart() // the first session may roll others back; every later one finds the same line
			if got := testing.AllocsPerRun(50, restart); got != tc.want {
				t.Fatalf("crash+restart at rest allocates %v times, want %v", got, tc.want)
			}
		})
	}
}

// TestRestartDurableAllocBytes bounds the heap bytes one crash and restart
// allocates at rest on log stores with a 170-key KV application, whose
// snapshot is 4 KiB: under one snapshot. The restart reads one record whole
// — Rehydrate's, which restores the application and releases the record, so
// the next restart's Load decodes into the same memory — and only the
// vectors of the others, into scratch: no snapshot is copied out of the
// store once warm (see logstore.TestLoadAllocationBudget).
func TestRestartDurableAllocBytes(t *testing.T) {
	const n, keys, victim, runs = 8, 170, 3, 50
	c := kvCluster(t, n, keys, logStores(t.TempDir()), nil)
	driveKV(t, c, rand.New(rand.NewSource(73)), 8*n, keys)
	restart := func() {
		if err := c.Crash(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restart(false); err != nil {
			t.Fatal(err)
		}
	}
	restart() // the first session may roll others back; every later one finds the same line
	if k := len(c.Node(victim).Store().Indices()); k < 2 {
		t.Fatalf("p%d retains %d checkpoints: the drive no longer exercises the survivors' reads", victim, k)
	}
	snapshot := len(c.Node(victim).App().(*app.KV).AppendSnapshot(nil))
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		restart()
	}
	goruntime.ReadMemStats(&after)
	if per := int(after.TotalAlloc-before.TotalAlloc) / runs; per >= snapshot {
		t.Fatalf("crash+restart at rest allocates %d bytes, want under one %d-byte snapshot", per, snapshot)
	}
}
