package runtime_test

// The live runtime's end-to-end delivery: one serial sender on an in-process
// cluster, and one sender per node on a TCP ring. There is no allocation pin
// here: the path is concurrent (sender-pool workers) and its per-message
// count moves with the schedule. allocs_per_msg on the benchmark's
// ring-saturated and uniform-w1 workloads judges it.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// benchDelivery drives a ring: a send from each node in turn through the
// asynchronous network — forced-checkpoint decision, merge, RDT-LGC collect
// at the receiver — with a checkpoint every eighth send so the vectors keep
// moving and deliveries keep carrying new information.
func benchDelivery(b *testing.B, compress bool) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Both helpers attach the real collector, so a delivery includes
			// RDT-LGC's collect work.
			var c *runtime.Cluster
			if net := (runtime.NetworkOptions{Seed: 1}); compress {
				c = compressCluster(b, n, net, false, unrecorded)
			} else {
				c = lgcCluster(b, n, net, unrecorded)
			}
			send := func(i int) {
				from := i % n
				if err := c.Node(from).Send((from + 1) % n); err != nil {
					b.Fatal(err)
				}
			}
			// One message across every pair first: the pool's workers spawn,
			// the snapshot freelist fills and each compressed pair gets its
			// full sync out of the way.
			for i := 0; i < n; i++ {
				send(i)
			}
			c.Quiesce()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send(i)
				if i%8 == 7 {
					if err := c.Node(i % n).Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
			}
			c.Quiesce()
			b.StopTimer()
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkDelivery(b *testing.B)           { benchDelivery(b, false) }
func BenchmarkDeliveryCompressed(b *testing.B) { benchDelivery(b, true) }

// BenchmarkDeliveryParallel is the multicore stopwatch: a TCP ring with 16
// messages in flight per node and one sender goroutine per node, under FDAS
// and RDT-LGC on in-memory stores — the shape of the end-to-end benchmark's
// ring-saturated workload. A send takes a credit from its node's window and
// the receiver's delivery handler gives it back. Run it at -cpu 1,2,...: a
// lock every message takes shows as msgs/s that does not grow with the
// processors, which BenchmarkDelivery's one serial sender cannot show.
// -short runs n = 32 only.
func BenchmarkDeliveryParallel(b *testing.B) {
	const window = 16
	sizes := []int{32, 128}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, ring := creditRing(b, n, window, true)
			b.ReportAllocs()
			b.ResetTimer()
			t0 := time.Now()
			ring(b.N)
			b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "msgs/s")
		})
	}
}

// creditRing builds an unrecorded n-node ring under RDT-LGC with window
// messages in flight per node, closed when the test ends, and returns it
// with ring: ring(msgs) sends msgs messages, one sender goroutine per node,
// and returns once they are delivered. It has already run one full
// window per node, so every stream is dialled, the workers have spawned and
// the snapshot freelists are stocked.
func creditRing(tb testing.TB, n, window int, tcp bool) (*runtime.Cluster, func(msgs int)) {
	tb.Helper()
	credits := make([]chan struct{}, n)
	for i := range credits {
		credits[i] = make(chan struct{}, window)
		for k := 0; k < window; k++ {
			credits[i] <- struct{}{}
		}
	}
	c, err := runtime.NewCluster(runtime.Config{
		N: n, TCP: tcp,
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
		// Every message on the ring comes from the receiver's predecessor:
		// its credit goes back there, and never blocks the receiver, since a
		// node has window credits in all.
		OnDeliver: func(self int, _ app.App, _ []byte) { credits[(self+n-1)%n] <- struct{}{} },
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	ring := func(msgs int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			share := msgs / n
			if i < msgs%n {
				share++
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := share; k > 0; k-- {
					<-credits[i]
					if err := c.Node(i).Send((i + 1) % n); err != nil {
						tb.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		c.Quiesce()
	}
	ring(n * window)
	return c, ring
}

// BenchmarkRestartAtRest times a crash and restart of p0 on an idle
// in-process compressed cluster: the recovery session alone, with nothing in
// transit, nothing parked and nobody to roll back but p0, after every pair
// has carried one message — so every pair link exists and every encoder is
// synced, the state a session used to sweep and clear at O(n²). The session
// runs without the last-interval vector (globalLI false): with it, every
// survivor's ReleaseStale scans its n-entry UC, an O(n²) of the collector's
// that this leaves out (EXPERIMENTS.md E19 times both). The n² first messages
// are sent into a full partition and released by one heal, so each carries
// only its sender's own entry. The in-process wire keeps no retransmit
// window, but n = 512 still allocates about 295 MB while its cluster is set
// up (alloc_space at -benchtime 20x; the pair links are 68 MB of it, their
// parked backlogs 70 MB), so -short stops at 128.
func BenchmarkRestartAtRest(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		if testing.Short() && n > 128 {
			continue
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := compressCluster(b, n, runtime.NetworkOptions{Seed: 1}, false, unrecorded)
			defer func() { _ = c.Close() }()
			alone := make([][]int, n)
			for i := range alone {
				alone[i] = []int{i}
			}
			if err := c.Partition(alone); err != nil {
				b.Fatal(err)
			}
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if to != from {
						if err := c.Node(from).Send(to); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			c.Quiesce()
			c.HealAll()
			c.Quiesce()
			restart := func() {
				if err := c.Crash(0); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Restart(false); err != nil {
					b.Fatal(err)
				}
			}
			restart() // the first session rolls p0 back; every later one finds the same line
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restart()
			}
		})
	}
}
