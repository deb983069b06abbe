package runtime_test

import (
	"errors"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/leakcheck"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// ringSends sends rounds messages around the ring 0→1→…→n−1→0.
func ringSends(t *testing.T, c *runtime.Cluster, rounds int) {
	t.Helper()
	for k := 0; k < rounds; k++ {
		if err := c.Node(k % c.N()).Send((k + 1) % c.N()); err != nil {
			t.Fatal(err)
		}
	}
}

// closedEmpty asserts what Close owes the sender pool: it cancelled everything
// queued, so no frame is left for a worker to deliver and none is accounted as
// in transit.
func closedEmpty(t *testing.T, c *runtime.Cluster) {
	t.Helper()
	if c.Queued() != 0 || c.InTransit() != 0 {
		t.Fatalf("Close returned with %d frames queued and %d in transit", c.Queued(), c.InTransit())
	}
}

// TestNoGoroutineLeakAfterClose guards the shutdowns that leave work behind
// them: an in-process cluster closed with delayed sends still queued in the
// sender pool (Close cancels them; the idle workers retire on their own), a
// cluster on either wire closed during an open partition with frames parked
// behind the cut, both again on log stores — whose committer and compactor
// goroutines the cluster owns, having opened the stores, and whose read
// descriptors a restart opened: the descriptor count returns to its value
// before NewCluster too — and a NewCluster that fails after it has opened
// some.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	lgc := func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) }
	delayed := runtime.NetworkOptions{MinDelay: 100 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: 5}

	t.Run("in-process, delayed sends queued", func(t *testing.T) {
		base := goruntime.NumGoroutine()
		c := lgcCluster(t, 4, delayed)
		ringSends(t, c, 40)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		closedEmpty(t, c)
		leakcheck.Settle(t, base)
	})
	t.Run("in-process on log stores, delayed sends queued", func(t *testing.T) {
		base, baseFDs := goruntime.NumGoroutine(), leakcheck.FDs(t)
		c, err := runtime.NewCluster(runtime.Config{N: 4, LocalGC: lgc, Net: delayed, NewStore: logStores(t.TempDir())})
		if err != nil {
			t.Fatal(err)
		}
		// A restart reads every store (rehydrate, recovery line, rollback), so
		// each holds read descriptors for Close to release.
		if err := c.Crash(1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restart(true); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.N(); i++ { // collections stage tombstones for Close to commit
			for k := 0; k < 3; k++ {
				if err := c.Node(i).Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		ringSends(t, c, 40)
		before := make([]storage.Stats, c.N())
		for i := range before {
			before[i] = c.Node(i).Store().Stats()
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// Each receiver had sent, so the first delivery to it would have forced
		// a checkpoint into a closed store. Close cancelled the queued messages
		// instead of leaving them to come due: no store saw another op, even
		// once the workers have retired.
		closedEmpty(t, c)
		leakcheck.Settle(t, base)
		leakcheck.SettleFDs(t, baseFDs)
		for i := range before {
			if got := c.Node(i).Store().Stats(); got != before[i] {
				t.Fatalf("p%d: store touched after Close: %+v, was %+v", i, got, before[i])
			}
		}
		if err := c.Node(0).Send(1); !errors.Is(err, runtime.ErrHalted) {
			t.Fatalf("Send after Close: %v, want ErrHalted", err)
		}
	})
	for _, tcp := range []bool{false, true} {
		t.Run(wireName(tcp)+", closed during an open partition", func(t *testing.T) {
			base := goruntime.NumGoroutine()
			c := compressedCluster(t, 4, tcp, runtime.LinkOptions{
				RetryBase: 30 * time.Second,
				RetryCap:  time.Minute,
			})
			// Streams exist in both directions before the cut, so on the TCP wire
			// Close has live readers and writers to tear down as well as parked
			// frames.
			ringSends(t, c, 40)
			c.Quiesce()
			if err := c.Partition([][]int{{0, 1}, {2, 3}}); err != nil {
				t.Fatal(err)
			}
			ringSends(t, c, 40)
			c.Quiesce() // cross-group frames are parked behind the cut
			if c.PartitionedPairs() == 0 {
				t.Fatal("no pair is partitioned")
			}
			// A cut pair waits for its heal, not for a timer: a partition holds
			// none open, however long it lasts.
			if timers := c.RetryTimers(); timers != 0 {
				t.Fatalf("%d retry timers armed on a cut cluster, want none", timers)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			leakcheck.Settle(t, base)
		})
	}
	t.Run("tcp on log stores", func(t *testing.T) {
		base, baseFDs := goruntime.NumGoroutine(), leakcheck.FDs(t)
		c, err := runtime.NewCluster(runtime.Config{N: 4, TCP: true, LocalGC: lgc, NewStore: logStores(t.TempDir())})
		if err != nil {
			t.Fatal(err)
		}
		driveRandom(t, c, 30, 9)
		if err := c.Crash(2); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restart(false); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		leakcheck.Settle(t, base)
		leakcheck.SettleFDs(t, baseFDs) // sockets and store descriptors alike
	})
	t.Run("NewStore fails on the third process", func(t *testing.T) {
		base := goruntime.NumGoroutine()
		for _, tcp := range []bool{false, true} {
			open := logStores(t.TempDir())
			_, err := runtime.NewCluster(runtime.Config{
				N: 4, TCP: tcp, LocalGC: lgc,
				NewStore: func(self int) (storage.Store, error) {
					if self == 2 {
						return nil, errors.New("disk full")
					}
					return open(self)
				},
			})
			if err == nil {
				t.Fatalf("tcp=%v: NewCluster succeeded without a store for p2", tcp)
			}
		}
		leakcheck.Settle(t, base)
	})
}
