package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
)

// shape is the time structure of an episode. Every episode of a run has the
// same shape and starts on a fresh cluster, so the program's ever-growing
// history and heap reach the same size in every episode of every run.
type shape struct {
	Window  time.Duration // length of one measurement window
	Windows int           // windows per episode
	Ramp    time.Duration // load runs this long before the first window opens
}

var (
	fullShape  = shape{Window: time.Second, Windows: 5, Ramp: 500 * time.Millisecond}
	smokeShape = shape{Window: 250 * time.Millisecond, Windows: 4, Ramp: 100 * time.Millisecond}
)

// idleRecoveries is the number of crash→restart cycles a workload without a
// crash schedule runs on the cluster at rest, right after set-up. Every
// workload has to report every end-to-end metric and none may read zero (the
// driver's contract), so the closed loops, which cannot take a crash under
// load without failing sends, report recover_p50_ms from these: Restart on
// their own store and cluster size.
//
// There are at least idleRecoveries of them, and they go on until idleSpan has
// passed (but stop at idleRecoveriesMax): the ring's take 0.02 ms each, and
// 4 ms is too short a stretch for the speedometer beside them to say how
// fast the machine was.
const (
	idleRecoveries    = 200
	idleRecoveriesMax = 5000
	idleSpan          = 40 * time.Millisecond
)

const primeFlag = uint64(1) << 63

// episodeResult is everything one episode measured.
type episodeResult struct {
	SetupS float64

	// One value per window, as measured.
	MsgsPerS, DeliverP50, DeliverP99, CkptP50, CkptP99 []float64
	CPUUsPerMsg, AllocsPerMsg                          []float64
	// The same at nominal machine speed (speed.go): processor time always,
	// rates and latencies where the workload keeps the processors busy.
	AdjMsgsPerS, AdjDeliverP50, AdjCkptP50, AdjCPUUsPerMsg []float64
	Speed                                                  []float64 // of the machine, per window; 1 = nominal
	RestSpeed                                              float64   // multiplies SetupS and RecoverMs; 1 where they wait for timers, not processors

	DeliverSamples, CkptSamples uint64
	RecoverMs                   []float64
	RetainedMax                 int
	RetainedMean                float64
	HeapLiveMB                  float64

	Attempted, Failed, Refused, Sends int64
	Failures                          []string // the first few, for the report

	// Harness and traced-run extras.
	LateP99Ms   float64
	QuiesceMs   float64
	OpenMs      float64
	DiskBytes   int64
	SendCallP50 float64
	SendCallP99 float64
	QueueDepth  float64 // mean of the 1/window samples of the registry gauges
	IngressDep  float64
	Snapshot    obs.Snapshot
	Trace       *tracer
}

// episode is the state one running episode shares between its goroutines.
type episode struct {
	w      workload
	sh     shape
	o      options
	ord    int
	traced bool

	base    time.Time // payload timestamps are ns since base
	c       *runtime.Cluster
	stores  []storage.Store // unwrapped, for Close
	dir     string
	reg     *obs.Registry
	tr      *tracer
	openDur []time.Duration
	storeMu sync.Mutex

	tokens   []chan struct{}
	deliver  *windows // row = receiver
	ckpt     *windows // row = the node checkpointing
	sendCall *windows // row = sender (traced only)
	late     *windows // row = sender (open loop)
	lap      *windows // one row: the speedometer's laps under load
	primed   atomic.Int64

	// Per-sender bookkeeping, each row owned by its sender goroutine until
	// the episode drains.
	sent    []int64
	refused []int64
	tried   []int64
	ckpts   []int64
	faults  atomic.Int64  // crash and restart calls attempted
	stop    chan struct{} // closed if senders are still waiting for credits long after the end
	// Open loop under crashes: each accepted message's hand-over, by sender,
	// and whether it arrived, to tell a legitimate drop from a lost message.
	handed [][]handOver
	got    [][]uint8     // [sender][sequence], written by the receiver
	recv   []paddedCount // row = receiver, under its lock

	failMu   sync.Mutex
	failed   int64
	failures []string
}

// handOver is the sender's record of one accepted message.
type handOver struct {
	called, returned int64 // the SendPayload call, ns since base
	to               int
}

type paddedCount struct {
	n int64
	_ [56]byte
}

func (e *episode) fail(format string, args ...any) {
	e.failMu.Lock()
	e.failed++
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
	e.failMu.Unlock()
}

// modelledFlush is the device flush of a log-store commit, which is modelled,
// not performed: the record is encoded, written with write(2) and handed
// through the group-commit path, and in place of the fsync the committer
// sleeps. On the virtual disk under the checkout a real fsync drifts between
// 0.3 and 0.9 ms from one run to the next, which no windowing inside a run
// averages out. The sleep is a Go timer: it lasts its 300 µs while other
// goroutines keep the processors busy (durable-ckpt), and about 1.1 ms in a
// process that is otherwise idle (crash-recover), because the runtime arms
// its poller in whole milliseconds; storage.commit_ns_p50 shows which.
const modelledFlush = 300 * time.Microsecond

func flushModel(*os.File) error {
	time.Sleep(modelledFlush)
	return nil
}

func refusal(err error) bool {
	return errors.Is(err, runtime.ErrHalted) || errors.Is(err, runtime.ErrCrashed)
}

// kvKeys are the pre-filled application keys (8 bytes each, so one key costs
// 24 snapshot bytes: 170 keys ≈ 4 KiB).
var kvKeys = func() []string {
	ks := make([]string, 256)
	for i := range ks {
		ks[i] = fmt.Sprintf("key-%04d", i)
	}
	return ks
}()

// config assembles the cluster under test: FDAS + RDT-LGC everywhere, the
// workload's network and store, and — on a traced run — the timing wrappers
// and a metrics registry, all through the runtime's public Config.
func (e *episode) config() runtime.Config {
	w := e.w
	cfg := runtime.Config{
		N:        w.N,
		TCP:      w.TCP,
		Compress: w.Compress,
		Net: runtime.NetworkOptions{
			MinDelay: w.MinDelay, MaxDelay: w.MaxDelay,
			Seed: mix(e.o.Seed, int64(e.ord), -2),
		},
		Protocol:  func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:   func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		OnDeliver: e.onDeliver,
	}
	cfg.NewStore = func(self int) (storage.Store, error) {
		var st storage.Store = storage.NewMemStore()
		if w.Durable {
			t0 := time.Now()
			ls, err := logstore.Open(filepath.Join(e.dir, fmt.Sprintf("p%d", self)), logstore.Options{Sync: flushModel})
			if err != nil {
				return nil, err
			}
			e.storeMu.Lock()
			e.openDur = append(e.openDur, time.Since(t0))
			e.storeMu.Unlock()
			st = ls
		}
		e.storeMu.Lock()
		e.stores = append(e.stores, st)
		e.storeMu.Unlock()
		if e.traced {
			return tracedStore{Store: st, nt: &e.tr.nodes[self]}, nil
		}
		return st, nil
	}
	if w.KVKeys > 0 {
		cfg.NewApp = func(int) app.App {
			kv := app.NewKV()
			for _, k := range kvKeys[:w.KVKeys] {
				kv.Set(k, 1)
			}
			return kv
		}
	}
	if e.traced {
		cfg.Obs = obs.Options{Registry: e.reg}
		cfg.Protocol = func(self int) protocol.Protocol {
			return tracedProtocol{Protocol: protocol.NewFDAS(), nt: &e.tr.nodes[self]}
		}
		cfg.LocalGC = func(self, n int, st storage.Store) gc.Local {
			return tracedGC{Local: core.New(self, n, st), nt: &e.tr.nodes[self]}
		}
	}
	return cfg
}

// payload layout: bytes 0-7 sender<<40 | sequence (top bit: set-up message),
// bytes 8-15 the instant the send was called (closed loop) or due (open
// loop), in ns since the episode's base.
func (e *episode) payload(from int, seq uint64, at time.Time) []byte {
	// A fresh buffer per send: the runtime references it until the frame is
	// encoded, and a user's application would hand over its own bytes too.
	p := make([]byte, 16)
	binary.LittleEndian.PutUint64(p, uint64(from)<<40|seq)
	binary.LittleEndian.PutUint64(p[8:], uint64(at.Sub(e.base)))
	return p
}

// onDeliver is the application handler; it runs under the receiver's lock.
func (e *episode) onDeliver(self int, a app.App, p []byte) {
	if len(p) != 16 {
		e.fail("p%d: delivered a %d-byte payload", self, len(p))
		return
	}
	head := binary.LittleEndian.Uint64(p)
	if head&primeFlag != 0 {
		e.primed.Add(1)
		if e.traced {
			e.tr.nodes[self].closeGroup(0, 0, false)
		}
		return
	}
	from, seq := int(head>>40), head&(1<<40-1)
	sentAt := int64(binary.LittleEndian.Uint64(p[8:]))
	now := time.Now()
	e.deliver.record(self, now, now.Sub(e.base)-time.Duration(sentAt))
	e.recv[self].n++
	if e.got != nil {
		e.got[from][seq] = 1
	}
	if kv, ok := a.(*app.KV); ok {
		kv.Add(kvKeys[seq%uint64(e.w.KVKeys)], 1)
	}
	if e.tokens != nil {
		// Capacity equals the credits outstanding, so this never blocks
		// under the receiver's lock.
		e.tokens[from] <- struct{}{}
	}
	if e.traced {
		e.tr.nodes[self].closeGroup(int64(head), sentAt, seq&msgSampleMask == 0)
	}
}

// runEpisode runs one episode on a fresh cluster and tears it down.
func runEpisode(w workload, sh shape, o options, ord int, traced bool) (res episodeResult, err error) {
	e := &episode{w: w, sh: sh, o: o, ord: ord, traced: traced}
	e.deliver = newWindows(w.N, sh.Windows, sh.Window)
	e.ckpt = newWindows(w.N, sh.Windows, sh.Window)
	e.late = newWindows(w.N, sh.Windows, sh.Window)
	e.lap = newWindows(1, sh.Windows, sh.Window)
	e.sendCall = newWindows(w.N, sh.Windows, sh.Window)
	e.sent = make([]int64, w.N)
	e.refused = make([]int64, w.N)
	e.tried = make([]int64, w.N)
	e.ckpts = make([]int64, w.N)
	e.stop = make(chan struct{})
	e.recv = make([]paddedCount, w.N)
	if traced {
		e.tr = newTracer(w.N)
		e.reg = obs.NewRegistry()
	}

	// ---- set-up: stores, listeners, prewarm, one message on every pair ----
	setup0 := time.Now()
	e.base = setup0
	if traced {
		e.tr.base = setup0 // spans and payload timestamps share one clock base
	}
	if w.Durable {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return res, err
		}
		if e.dir, err = os.MkdirTemp(o.OutDir, "store-"); err != nil {
			return res, err
		}
		defer os.RemoveAll(e.dir)
	}
	c, err := runtime.NewCluster(e.config())
	// Whatever was opened is closed, also when NewCluster failed half-way.
	defer func() {
		for _, st := range e.stores {
			if cl, ok := st.(interface{ Close() error }); ok {
				if cerr := cl.Close(); cerr != nil && err == nil {
					err = fmt.Errorf("closing store: %w", cerr)
				}
			}
		}
	}()
	if err != nil {
		return res, err
	}
	e.c = c
	defer func() {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing cluster: %w", cerr)
		}
	}()
	pairs := e.prime()
	c.Quiesce()
	if got := e.primed.Load(); got != int64(pairs) {
		e.fail("set-up: %d of %d first messages delivered", got, pairs)
	}
	res.SetupS = time.Since(setup0).Seconds()

	// ---- recoveries on the cluster at rest (closed-loop workloads) ----
	// From here to the last window the speedometer reads the machine's speed:
	// lapping back to back now, every lapEvery once the load starts.
	meter, err := startSpeedometer()
	if err != nil {
		return res, err
	}
	var atRest *hist
	stopMeter := func() error {
		if meter == nil {
			return nil
		}
		var err error
		atRest, err = meter.stop()
		meter = nil
		return err
	}
	defer stopMeter()
	if w.CrashGap == 0 {
		rest0 := time.Now()
		for k, v := range w.crashSchedule(e.o.Seed, e.ord, idleRecoveriesMax) {
			if k >= idleRecoveries && time.Since(rest0) >= idleSpan {
				break
			}
			res.RecoverMs = append(res.RecoverMs, e.crashRestart(v, k))
		}
	}
	if sh.Windows == 0 { // a repetition of set-up and recoveries at rest only
		if err := stopMeter(); err != nil {
			return res, err
		}
		res.atNominal(w.Credits > 0, speedOf(atRest))
		res.Failed, res.Failures = e.failed, e.failures
		res.Attempted = int64(pairs) + e.faults.Load()
		return res, nil
	}

	// ---- load ----
	if w.Credits > 0 {
		e.tokens = make([]chan struct{}, w.N)
		for i := range e.tokens {
			e.tokens[i] = make(chan struct{}, w.Credits)
			for k := 0; k < w.Credits; k++ {
				e.tokens[i] <- struct{}{}
			}
		}
	} else {
		slots := w.RatePerS*int((sh.Ramp+time.Duration(sh.Windows)*sh.Window)/time.Second+2) + 16
		e.handed = make([][]handOver, w.N)
		e.got = make([][]uint8, w.N)
		for i := range e.handed {
			e.handed[i] = make([]handOver, 0, slots)
			e.got[i] = make([]uint8, slots)
		}
	}
	loadStart := time.Now()
	t0 := loadStart.Add(sh.Ramp)
	end := t0.Add(time.Duration(sh.Windows) * sh.Window)
	for _, ws := range []*windows{e.deliver, e.ckpt, e.late, e.sendCall, e.lap} {
		ws.start = t0
	}
	meter.load(e.lap)

	var wg sync.WaitGroup
	for i := 0; i < w.N; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if w.Credits > 0 {
				e.closedLoop(id, end)
			} else {
				e.openLoop(id, loadStart, end)
			}
		}(i)
	}
	var crashes []crashSpan
	var crashMs []float64
	if w.CrashGap > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crashes, crashMs = e.crasher(t0, end)
		}()
	}
	samples := e.sample(t0) // returns after the last window closes
	meterErr := stopMeter()
	// A sender still waiting for a credit long after the end has lost a
	// message; release it so the books can report that instead of hanging.
	unblock := time.AfterFunc(10*time.Second, func() { close(e.stop) })
	wg.Wait()
	unblock.Stop()
	q0 := time.Now()
	c.Quiesce()
	res.QuiesceMs = float64(time.Since(q0)) / 1e6
	if meterErr != nil {
		return res, meterErr
	}
	res.RecoverMs = append(res.RecoverMs, crashMs...)

	// ---- books ----
	e.closeBooks(crashes)
	e.checkNodes("after the drain")
	e.fill(&res, samples, atRest)
	// What the cluster still holds once everything is delivered — chiefly the
	// runtime's always-on history — read after a collection so that where
	// the last GC cycle happened to fall does not move it.
	var ms goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	res.HeapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	return res, nil
}

// prime sends one message over every directed pair the workload uses, so
// lazy dials and first-message costs are part of set-up, not of the windows.
func (e *episode) prime() int {
	pairs := 0
	for from := 0; from < e.w.N; from++ {
		for to := 0; to < e.w.N; to++ {
			if to == from || (e.w.Ring && to != (from+1)%e.w.N) {
				continue
			}
			p := make([]byte, 16)
			binary.LittleEndian.PutUint64(p, primeFlag)
			if err := e.c.Node(from).SendPayload(to, p); err != nil {
				e.fail("set-up send p%d->p%d: %v", from, to, err)
			}
			pairs++
		}
	}
	return pairs
}

// crashRestart fails one process and restarts it at once; the returned time
// (ms) is how long the whole cluster was without service.
func (e *episode) crashRestart(victim, ordinal int) float64 {
	var root int32
	if e.traced {
		root = e.tr.openRoot(&e.tr.recoverRoot, span{Kind: spRecover, Node: int16(victim), ID: int64(ordinal)})
	}
	c0 := time.Now()
	if err := e.c.Crash(victim); err != nil {
		e.fail("crash p%d: %v", victim, err)
	}
	_, err := e.c.Restart(true)
	ms := float64(time.Since(c0)) / 1e6
	if e.traced {
		e.tr.closeRoot(&e.tr.recoverRoot, root)
	}
	if err != nil {
		e.fail("restart after p%d crashed: %v", victim, err)
	}
	e.faults.Add(2)
	e.checkRetained("after a recovery")
	return ms
}

// checkRetained enforces the paper's space bound where it is cheapest to
// see: no store may hold more than n checkpoints.
func (e *episode) checkRetained(when string) (max, sum int) {
	for i := 0; i < e.w.N; i++ {
		_, _, st := e.c.Node(i).Stats()
		sum += st.Live
		if st.Live > max {
			max = st.Live
		}
		if st.Live > e.w.N {
			e.fail("p%d retains %d > n=%d checkpoints %s", i, st.Live, e.w.N, when)
		}
	}
	return max, sum
}

// checkNodes runs the cheap end-of-episode checks on the drained cluster.
func (e *episode) checkNodes(when string) {
	e.checkRetained(when)
	for i := 0; i < e.w.N; i++ {
		if lgc, ok := unwrapGC(e.c.Node(i).Collector()).(*core.LGC); ok {
			if err := lgc.CheckRefCounts(); err != nil {
				e.fail("p%d %s: %v", i, when, err)
			}
		}
	}
}

// closedLoop is one node's sender: a send needs a credit, and the credit
// comes back when the message is delivered.
func (e *episode) closedLoop(id int, end time.Time) {
	node := e.c.Node(id)
	dests := e.w.destinations(e.o.Seed, e.ord, id)
	var seq uint64
	for {
		select {
		case <-e.tokens[id]: // every credit in flight comes back: nothing is dropped here
		case <-e.stop:
			return
		}
		now := time.Now()
		if !now.Before(end) {
			return
		}
		to := dests.next()
		e.tried[id]++
		err := node.SendPayload(to, e.payload(id, seq, now))
		if e.traced {
			e.traceSend(id, seq, now)
		}
		if err != nil {
			e.fail("p%d send: %v", id, err)
			return
		}
		seq++
		e.sent[id]++
		if seq%uint64(e.w.CkptEach) == 0 {
			if err := e.checkpoint(id); err != nil {
				e.fail("p%d checkpoint: %v", id, err)
				return
			}
		}
	}
}

// openLoop is one node's sender on a schedule: sends go out when they are
// due whether or not earlier ones arrived, latency counts from the due time,
// and a send refused while the cluster is halted for recovery is not retried.
func (e *episode) openLoop(id int, start, end time.Time) {
	node := e.c.Node(id)
	dests := e.w.destinations(e.o.Seed, e.ord, id)
	period := time.Second / time.Duration(e.w.RatePerS)
	phase := period * time.Duration(id) / time.Duration(e.w.N)
	var seq uint64
	for k := 0; ; k++ {
		due := start.Add(phase + time.Duration(k)*period)
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		e.late.record(id, due, now.Sub(due))
		to := dests.next()
		e.tried[id]++
		err := node.SendPayload(to, e.payload(id, seq, due))
		if e.traced {
			e.traceSend(id, seq, now)
		}
		switch {
		case err == nil:
			e.handed[id] = append(e.handed[id], handOver{int64(now.Sub(e.base)), int64(time.Since(e.base)), to})
			seq++
			e.sent[id]++
		case refusal(err):
			e.refused[id]++
		default:
			e.fail("p%d send: %v", id, err)
			return
		}
		if (k+1)%e.w.CkptEach == 0 {
			if err := e.checkpoint(id); err != nil && !refusal(err) {
				e.fail("p%d checkpoint: %v", id, err)
				return
			}
		}
	}
}

// checkpoint takes and times one basic checkpoint.
func (e *episode) checkpoint(id int) error {
	e.tried[id]++
	sampled := false
	var root int32
	if e.traced {
		e.ckpts[id]++
		if sampled = e.ckpts[id]%ckptSample == 0; sampled {
			root = e.tr.openRoot(&e.tr.nodes[id].ckptRoot, span{Kind: spCkpt, Node: int16(id), ID: e.ckpts[id]})
		}
	}
	c0 := time.Now()
	err := e.c.Node(id).Checkpoint()
	d := time.Since(c0)
	if sampled {
		e.tr.closeRoot(&e.tr.nodes[id].ckptRoot, root)
	}
	if err == nil {
		e.ckpt.record(id, c0, d)
	}
	return err
}

// traceSend records the SendPayload call that started at t0.
func (e *episode) traceSend(id int, seq uint64, t0 time.Time) {
	now := time.Now()
	e.sendCall.record(id, t0, now.Sub(t0))
	if seq&msgSampleMask == 0 {
		e.tr.publish(span{
			Kind: spSendCall, Node: int16(id), ID: int64(uint64(id)<<40 | seq),
			Start: int64(t0.Sub(e.tr.base)), End: int64(now.Sub(e.tr.base)),
		})
	}
}

type crashSpan struct{ from, to int64 } // ns since base

// crasher fails a seeded victim every CrashGap while the windows are open
// and restarts it at once.
func (e *episode) crasher(t0, end time.Time) ([]crashSpan, []float64) {
	count := int(end.Sub(t0) / e.w.CrashGap)
	victims := e.w.crashSchedule(e.o.Seed, e.ord, count)
	var spans []crashSpan
	var ms []float64
	for k, v := range victims {
		due := t0.Add(e.w.CrashGap/2 + time.Duration(k)*e.w.CrashGap)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		c0 := time.Now()
		if !c0.Before(end) {
			break
		}
		ms = append(ms, e.crashRestart(v, k))
		spans = append(spans, crashSpan{int64(c0.Sub(e.base)), int64(time.Since(e.base))})
	}
	return spans, ms
}

// windowSample is what the sampler reads at one window boundary.
type windowSample struct {
	cpu      time.Duration
	mallocs  uint64
	retained int
	liveSum  int
	queue    int64
	ingress  int64
}

// sample reads the process counters at every window boundary (Windows+1
// reads) and returns after the last one.
func (e *episode) sample(t0 time.Time) []windowSample {
	out := make([]windowSample, 0, e.sh.Windows+1)
	var ms goruntime.MemStats
	for k := 0; k <= e.sh.Windows; k++ {
		if d := time.Until(t0.Add(time.Duration(k) * e.sh.Window)); d > 0 {
			time.Sleep(d)
		}
		s := windowSample{cpu: cpuTime()}
		goruntime.ReadMemStats(&ms)
		s.mallocs = ms.Mallocs
		s.retained, s.liveSum = e.checkRetained("at a window boundary")
		if e.traced {
			s.queue = e.reg.Gauge(obs.RuntimeQueueDepth).Value()
			s.ingress = e.reg.Gauge(obs.RuntimeIngressDepth).Value()
		}
		out = append(out, s)
	}
	return out
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the system and restarts the kernel's
// high-water mark of the resident set from what is left, so that a workload
// measured after others in one process reports its own peak. The driver's
// form, one workload per process, has no need of it and does not call it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Where /proc refuses the write the mark stays process-wide.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's high-water resident set since resetPeakRSS, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// closeBooks accounts for every accepted message once the episode has
// drained: delivered, legitimately dropped by a crash, or lost (a failure).
func (e *episode) closeBooks(crashes []crashSpan) {
	if e.got == nil {
		var sent, recv int64
		for i := range e.sent {
			sent += e.sent[i]
			recv += e.recv[i].n
		}
		for ; recv < sent; recv++ {
			e.fail("a message was accepted and never delivered (%d sent)", sent)
		}
		return
	}
	for from := range e.handed {
		for seq := range e.handed[from] {
			if e.got[from][seq] != 0 {
				continue
			}
			if why := unexplained(e.handed[from], e.got[from], seq, crashes, e.w.MaxDelay-e.w.MinDelay); why != "" {
				e.fail("p%d message %d to p%d was accepted and never delivered: %s", from, seq, e.handed[from][seq].to, why)
			}
		}
	}
}

// unexplained says why no crash explains that message seq of one sender's
// accepted messages never arrived, or "" when a crash does. A recovery
// session drops what is in flight when it starts, so a loss is legitimate if
// the message was still on its way when the next crash came — and how long
// that may take has no bound the benchmark could hold the program to: on the
// machine the bounds were recorded on, one of the two processors freezes for
// 40–150 ms several times a minute while the other carries on and crashes
// the victim on schedule. So time alone convicts nothing. Order does: a
// pair's messages arrive in the order they fall due (the in-process network
// delivers from a due-time heap, TCP is FIFO), so a message that stayed
// undelivered while a later one of its pair — handed over at least the delay
// jitter later, and before the crash began — did arrive was not in flight: it
// was lost. At 500 sends/s over 7 destinations a pair carries a message every
// 14 ms, so about four in five messages dropped at random would be caught.
func unexplained(sent []handOver, got []uint8, seq int, crashes []crashSpan, jitter time.Duration) string {
	m := sent[seq]
	// The first crash that can have dropped it; a send that straddled a
	// recovery is given to that recovery.
	k := sort.Search(len(crashes), func(i int) bool { return crashes[i].to >= m.called })
	if k == len(crashes) {
		return "no crash followed it"
	}
	for later := seq + 1; later < len(sent) && sent[later].returned < crashes[k].from; later++ {
		if l := sent[later]; l.to == m.to && got[later] != 0 && l.called >= m.returned+int64(jitter) {
			return fmt.Sprintf("message %d of the same pair, handed over %.1f ms later, arrived before the next crash",
				later, float64(l.called-m.returned)/1e6)
		}
	}
	return ""
}

// atNominal derives the speed-adjusted series from the measured ones.
// Processor time is always reported at nominal speed. Rates and latencies are
// only where processors, not timers, set them: busy is true for the closed
// loops, which keep every processor occupied, and false for the open loop,
// whose times are injected delays, flush waits and its own schedule. The
// closed loops' recoveries run on the cluster at rest, right after the set-up,
// and both take the speed the speedometer read beside the recoveries (0,
// which drops them, if it could not say).
func (r *episodeResult) atNominal(busy bool, restSpeed float64) {
	r.RestSpeed = 1
	if busy {
		r.RestSpeed = restSpeed
	}
	for k, speed := range r.Speed {
		scale := 1.0
		if busy {
			scale = speed
		}
		r.AdjMsgsPerS = append(r.AdjMsgsPerS, r.MsgsPerS[k]/scale)
		r.AdjDeliverP50 = append(r.AdjDeliverP50, r.DeliverP50[k]*scale)
		r.AdjCkptP50 = append(r.AdjCkptP50, r.CkptP50[k]*scale)
		r.AdjCPUUsPerMsg = append(r.AdjCPUUsPerMsg, r.CPUUsPerMsg[k]*speed)
	}
}

// fill turns the episode's raw windows and samples into per-window values.
func (e *episode) fill(res *episodeResult, samples []windowSample, atRest *hist) {
	del, ck, laps := e.deliver.merged(), e.ckpt.merged(), e.lap.merged()
	var underLoad hist
	for k := range laps {
		underLoad.merge(&laps[k])
	}
	whole := speedOf(&underLoad)
	if whole == 0 {
		e.fail("the speedometer took only %d laps under load", underLoad.n)
		whole = 1
	}
	liveSum := 0
	for k := 0; k < e.sh.Windows; k++ {
		msgs := float64(del[k].n)
		res.DeliverSamples += del[k].n
		res.CkptSamples += ck[k].n
		res.MsgsPerS = append(res.MsgsPerS, msgs/e.sh.Window.Seconds())
		res.DeliverP50 = append(res.DeliverP50, del[k].quantile(0.50)/1e6)
		res.DeliverP99 = append(res.DeliverP99, del[k].quantile(0.99)/1e6)
		res.CkptP50 = append(res.CkptP50, ck[k].quantile(0.50)/1e6)
		res.CkptP99 = append(res.CkptP99, ck[k].quantile(0.99)/1e6)
		per := math.Max(msgs, 1) // a window without a delivery is charged as one message
		res.CPUUsPerMsg = append(res.CPUUsPerMsg, float64(samples[k+1].cpu-samples[k].cpu)/1e3/per)
		res.AllocsPerMsg = append(res.AllocsPerMsg, float64(samples[k+1].mallocs-samples[k].mallocs)/per)
		speed := speedOf(&laps[k])
		if speed == 0 {
			speed = whole
		}
		res.Speed = append(res.Speed, speed)
	}
	res.atNominal(e.w.Credits > 0, speedOf(atRest))
	for _, s := range samples {
		if s.retained > res.RetainedMax {
			res.RetainedMax = s.retained
		}
		liveSum += s.liveSum
		res.QueueDepth += float64(s.queue) / float64(len(samples))
		res.IngressDep += float64(s.ingress) / float64(len(samples))
	}
	if m, _ := e.checkRetained("at the end"); m > res.RetainedMax {
		res.RetainedMax = m
	}
	res.RetainedMean = float64(liveSum) / float64(len(samples)*e.w.N)
	for i := range e.sent {
		res.Sends += e.sent[i]
		res.Refused += e.refused[i]
		res.Attempted += e.tried[i]
	}
	res.Attempted += e.faults.Load()
	res.Failed, res.Failures = e.failed, e.failures

	var late, sc hist
	for _, h := range e.late.merged() {
		late.merge(&h)
	}
	for _, h := range e.sendCall.merged() {
		sc.merge(&h)
	}
	res.LateP99Ms = late.quantile(0.99) / 1e6
	res.SendCallP50, res.SendCallP99 = sc.quantile(0.50), sc.quantile(0.99)
	var open float64
	for _, d := range e.openDur {
		open += float64(d) / 1e6
	}
	res.OpenMs = open
	if e.dir != "" {
		res.DiskBytes = dirBytes(e.dir)
	}
	if e.traced {
		res.Snapshot = e.reg.Snapshot()
		res.Trace = e.tr
	}
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
