package main

import (
	"math/rand"
	"time"
)

// workload is one set of inputs the benchmark runs. Everything the program
// under test sees — destinations, the crash schedule, network delays — is
// derived from the seed; the seed itself never reaches the runtime.
type workload struct {
	Name string
	Why  string

	N        int
	TCP      bool          // loopback TCP mesh; false = in-process network
	Compress bool          // incremental piggybacking
	Durable  bool          // logstore in a fresh directory (device flush: see modelledFlush), else MemStore
	KVKeys   int           // app.KV pre-fill (0 = no application attached)
	Ring     bool          // i → i+1, else seeded uniform destinations
	Credits  int           // closed loop: messages in flight per node; 0 = open loop
	RatePerS int           // open loop: scheduled sends per second per node
	CkptEach int           // a basic checkpoint every CkptEach sends
	MinDelay time.Duration // injected network delay (in-process network only)
	MaxDelay time.Duration
	CrashGap time.Duration // a seeded victim crashes this often under traffic; 0 = only at rest (idleRecoveries)
}

// workloads is the fixed set; the names are the ones BENCHMARK.json lists.
var workloads = []workload{
	{
		Name: "ring-saturated",
		Why:  "n=32 TCP ring, 16 credits/node, MemStore: the message path does nearly all the work, so batching, locking and multicore changes show here",
		N:    32, TCP: true, Ring: true, Credits: 16, CkptEach: 64,
	},
	{
		Name: "uniform-w1",
		Why:  "n=32 TCP, 1 credit/node, uniform destinations, compressed: batches of one, FDAS forces ~0.5 checkpoints/msg, so protocol, core, vclock and MemStore carry the load; batching should not show",
		N:    32, TCP: true, Compress: true, Credits: 1, CkptEach: 64,
	},
	{
		Name: "durable-ckpt",
		Why:  "n=32 TCP, 4 credits/node, uniform, logstore (modelled 300 us flush), 4 KiB app snapshot, checkpoint every 8 sends: record encode, write, group commit, flush wait, tombstones; a store change shows here",
		N:    32, TCP: true, Durable: true, KVKeys: 170, Credits: 4, CkptEach: 8,
	},
	{
		Name: "crash-recover",
		Why:  "n=8 in-process network, 0.2-1 ms injected delay, logstore (modelled flush), open loop 500 sends/s/node, a crash+restart every 100 ms: recovery line, rollback, rehydrate and the delayed-send heap",
		N:    8, Durable: true, RatePerS: 500, CkptEach: 16,
		MinDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond, CrashGap: 100 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// destinations is node from's seeded destination stream: the ring successor,
// or uniform over the other nodes. Each node owns an independent stream, so
// the sequence a node sends to does not depend on goroutine interleaving.
type destinations struct {
	from, n int
	ring    bool
	rng     *rand.Rand
}

func (w workload) destinations(seed int64, episode, from int) *destinations {
	return &destinations{
		from: from, n: w.N, ring: w.Ring,
		rng: rand.New(rand.NewSource(mix(seed, int64(episode), int64(from)))),
	}
}

func (d *destinations) next() int {
	if d.ring {
		return (d.from + 1) % d.n
	}
	to := d.rng.Intn(d.n - 1)
	if to >= d.from {
		to++
	}
	return to
}

// crashSchedule lists the victims of one episode, one per CrashGap tick (or
// per idle recovery): seeded, so two runs with one seed crash the same
// processes in the same order.
func (w workload) crashSchedule(seed int64, episode, count int) []int {
	rng := rand.New(rand.NewSource(mix(seed, int64(episode), -1)))
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Intn(w.N)
	}
	return out
}

// mix folds the run seed with an episode and a stream id into one RNG seed
// (splitmix64 finalizer), so neighbouring seeds give unrelated streams.
func mix(seed, a, b int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(a)*0xbf58476d1ce4e5b9 + uint64(b)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
