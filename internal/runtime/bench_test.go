package runtime_test

// The live runtime's end-to-end delivery: one serial sender on an in-process
// cluster, and one sender per node on a TCP ring. There is no allocation pin
// here: the path is concurrent (sender-pool workers) and its per-message
// count moves with the schedule. allocs_per_msg on the benchmark's
// ring-saturated and uniform-w1 workloads judges it.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/protocol"
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
// obs=on/n=32 is the n = 32 ring with a default-size flight recorder
// attached, its window filled before the clock starts: what recording a
// send, a delivery and a checkpoint costs.
// -short runs n = 32 only, off and on.
func BenchmarkDeliveryParallel(b *testing.B) {
	const window = 16
	sizes := []int{32, 128}
	if testing.Short() {
		sizes = sizes[:1]
	}
	run := func(b *testing.B, n int, o obs.Options) {
		_, ring := creditRing(b, n, window, true, o)
		// A recorder allocates chunks until its window is full and it evicts;
		// fill it twice over before the clock starts, so the loop pays what a
		// warm recorder costs and not the chunks of its first 64 K events.
		for o.Recorder != nil && o.Recorder.Dropped() < obs.DefaultRecorderSize {
			ring(n * window * 16)
		}
		b.ReportAllocs()
		b.ResetTimer()
		t0 := time.Now()
		ring(b.N)
		b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "msgs/s")
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { run(b, n, obs.Options{}) })
	}
	b.Run("obs=on/n=32", func(b *testing.B) {
		run(b, 32, obs.Options{Recorder: obs.NewRecorder(0)})
	})
}

// BenchmarkDeliveryUniform is the stopwatch of the end-to-end benchmark's
// uniform-w1 workload: n = 32 on TCP, compressed piggybacks, FDAS and
// RDT-LGC on in-memory stores, one message in flight per node, each to a
// seeded uniform destination, with a 16-byte payload and a checkpoint every
// 64 sends. Every directed pair carries one message before the clock
// starts, so every connection is dialled. Besides msgs/s it reports the
// process's CPU time per message (getrusage) and the TCP segments sent per
// message (Tcp OutSegs in /proc/net/snmp, which counts every socket in the
// network namespace; left out where the file cannot be read): 2 when every
// data segment draws a pure ACK back, fewer when ACKs ride reverse traffic.
// It also reports the read syscalls and the bytes they read per message
// (syscr and rchar in /proc/self/io, every read of the process: 1 read a
// message when each arrival costs one, 2 when each also reads EAGAIN).
func BenchmarkDeliveryUniform(b *testing.B) {
	const n, ckptEach = 32, 64
	credits := make([]chan struct{}, n)
	for i := range credits {
		credits[i] = make(chan struct{}, 1)
		credits[i] <- struct{}{}
	}
	c, err := runtime.NewCluster(runtime.Config{
		N: n, TCP: true, Compress: true,
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:  func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		// payload[0] is the sender, whose credit the delivery gives back;
		// payload[1] marks a set-up message, which took none.
		OnDeliver: func(_ int, _ app.App, p []byte) {
			if p[1] == 0 {
				credits[p[0]] <- struct{}{}
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if to != from {
				if err := c.Node(from).SendPayload(to, []byte{byte(from), 1, 15: 0}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	c.Quiesce()
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i + 1)))
	}
	cpu0, segs0 := cpuTime(), tcpOutSegs()
	reads0, bytes0 := procReads()
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		share := b.N / n
		if i < b.N%n {
			share++
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rngs[i]
			for k := 1; k <= share; k++ {
				<-credits[i]
				to := rng.Intn(n - 1)
				if to >= i {
					to++
				}
				if err := c.Node(i).SendPayload(to, []byte{byte(i), 0, 15: 0}); err != nil {
					b.Error(err)
					return
				}
				if k%ckptEach == 0 {
					if err := c.Node(i).Checkpoint(); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	c.Quiesce()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "msgs/s")
	b.ReportMetric(float64(cpuTime()-cpu0)/float64(time.Microsecond)/float64(b.N), "cpu-us/msg")
	if segs1 := tcpOutSegs(); segs0 >= 0 && segs1 >= 0 {
		b.ReportMetric(float64(segs1-segs0)/float64(b.N), "segs/msg")
	}
	if reads1, bytes1 := procReads(); reads0 >= 0 && reads1 >= 0 {
		b.ReportMetric(float64(reads1-reads0)/float64(b.N), "reads/msg")
		b.ReportMetric(float64(bytes1-bytes0)/float64(b.N), "read-B/msg")
	}
}

// procReads is the read syscalls this process has made so far and the bytes
// they returned (syscr and rchar in /proc/self/io), or -1s where that cannot
// be read.
func procReads() (calls, bytes int64) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1, -1
	}
	calls, bytes = -1, -1
	for _, line := range strings.Split(string(raw), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		n, err := strconv.ParseInt(v, 10, 64)
		switch {
		case !ok || err != nil:
		case k == "syscr":
			calls = n
		case k == "rchar":
			bytes = n
		}
	}
	if calls < 0 || bytes < 0 {
		return -1, -1
	}
	return calls, bytes
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tcpOutSegs is the TCP segments sent in this network namespace so far
// (Tcp OutSegs in /proc/net/snmp), or -1 where that cannot be read.
func tcpOutSegs() int64 {
	raw, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return -1
	}
	var head []string
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Tcp:" {
			continue
		}
		if head == nil {
			head = f
			continue
		}
		for i := range head {
			if head[i] == "OutSegs" && i < len(f) {
				if v, err := strconv.ParseInt(f[i], 10, 64); err == nil {
					return v
				}
			}
		}
		return -1
	}
	return -1
}

// creditRing builds an unrecorded n-node ring under RDT-LGC with window
// messages in flight per node and the observability o, closed when the test
// ends, and returns it
// with ring: ring(msgs) sends msgs messages, one sender goroutine per node,
// and returns once they are delivered. It has already run one full
// window per node, so every stream is dialled, the workers have spawned and
// the snapshot freelists are stocked.
func creditRing(tb testing.TB, n, window int, tcp bool, o obs.Options) (*runtime.Cluster, func(msgs int)) {
	tb.Helper()
	credits := make([]chan struct{}, n)
	for i := range credits {
		credits[i] = make(chan struct{}, window)
		for k := 0; k < window; k++ {
			credits[i] <- struct{}{}
		}
	}
	c, err := runtime.NewCluster(runtime.Config{
		N: n, TCP: tcp, Obs: o,
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
// only its sender's own entry. n = 512 allocates about 295 MB while its cluster is set
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

// BenchmarkRestartDurable times a crash and restart at rest on the shape of
// the end-to-end benchmark's durable-ckpt workload: log stores (the device
// flush stubbed out) and a 170-key KV application, whose snapshot is 4 KiB,
// on an in-process cluster under RDT-LGC. Each iteration restarts a seeded
// victim; every process has been restarted once before the clock starts, so
// each session rolls back its victim alone, to its newest checkpoint.
func BenchmarkRestartDurable(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const keys = 170
			c := kvCluster(b, n, keys, logStores(b.TempDir()), nil)
			rng := rand.New(rand.NewSource(79))
			driveKV(b, c, rng, 8*n, keys)
			restart := func(victim int) {
				if err := c.Crash(victim); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Restart(false); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				restart(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restart(rng.Intn(n))
			}
		})
	}
}
