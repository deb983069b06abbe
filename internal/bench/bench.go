// Package bench is the unified performance harness for the per-message hot
// paths: microbenchmarks over the real layers (vclock merge/clone, protocol
// checkpoint decisions, RDT-LGC collect, storage save/rehydrate, transport
// framing, runtime end-to-end delivery, simulator runs) swept across system
// sizes, reporting ns/op, B/op, allocs/op and the paper-predicted metrics
// (retained checkpoints, collection ratio) alongside.
//
// The piggyback-only design of the paper keeps garbage collection free of
// control messages precisely so that its per-message cost stays negligible;
// this package is what measures that cost — and Compare is what defends it:
// cmd/bench -check gates every PR against the checked-in BENCH_core.json
// baseline (any allocs/op regression, or a case that disappeared, fails the
// build; ns/op is recorded as information — wall-clock time is judged by
// `go run ./benchmark`).
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Sink defeats dead-code elimination in case bodies; benchmarks accumulate
// otherwise-unused results into it.
var Sink int

// T is the measurement context handed to a Case body — a minimal analogue
// of *testing.B. The body performs its setup, calls Start, and then loops
// exactly N times over the operation under measurement.
type T struct {
	// N is the number of iterations the body must execute.
	N int

	start    time.Time
	mem      runtime.MemStats
	endMem   runtime.MemStats
	metrics  map[string]float64
	onStart  func() // hook for the go-test adapter (ResetTimer)
	onStop   func() // hook for the go-test adapter (StopTimer)
	elapsed  time.Duration
	finished bool
}

// Start marks the end of setup: the timer restarts and the allocation
// counters are snapshotted. Everything after Start until the body returns is
// attributed to the N iterations.
func (t *T) Start() {
	if t.onStart != nil {
		t.onStart()
	}
	runtime.ReadMemStats(&t.mem)
	t.start = time.Now()
}

// Stop ends the measured window early, so teardown (removing a temp
// directory, closing a cluster) is not attributed to the iterations. A body
// that never calls Stop is measured until it returns.
func (t *T) Stop() {
	if t.finished {
		return
	}
	t.elapsed = time.Since(t.start)
	runtime.ReadMemStats(&t.endMem)
	t.finished = true
	if t.onStop != nil {
		t.onStop()
	}
}

// Metric attaches a named, paper-predicted quantity (retained checkpoints,
// collection ratio, ...) to the case's result. Metrics are recorded, not
// gated.
func (t *T) Metric(name string, v float64) {
	if t.metrics == nil {
		t.metrics = make(map[string]float64)
	}
	t.metrics[name] = v
}

// Fatalf aborts the case with an error.
func (t *T) Fatalf(format string, args ...any) {
	panic(benchFail{fmt.Sprintf(format, args...)})
}

type benchFail struct{ msg string }

// Case is one benchmarked hot path at one system size.
type Case struct {
	// Path identifies the layer and operation, e.g. "vclock/merge".
	Path string
	// N is the process count the case runs at.
	N int
	// AllocSlack is the allocs/op increase tolerated before the gate fails.
	// Deterministic single-goroutine paths use 0 (any regression fails);
	// concurrent cases allow the scheduler a little noise.
	AllocSlack float64
	// Fn is the body: setup, Start, then exactly N iterations.
	Fn func(t *T)
}

// Result is one measured case.
type Result struct {
	Path        string             `json:"path"`
	N           int                `json:"n"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the JSON document recorded as BENCH_core.json, the baseline the CI
// bench lane gates against.
type Doc struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"goversion"`
	Quick      bool     `json:"quick"`
	Sizes      []int    `json:"sizes"`
	WallSecs   float64  `json:"wall_clock_seconds"`
	Results    []Result `json:"results"`
}

// Options configures a harness run.
type Options struct {
	// BenchTime is the target measured duration per case; the iteration
	// count is calibrated until a run reaches it.
	BenchTime time.Duration
	// Filter, when non-empty, restricts the run to cases whose path
	// contains it as a substring.
	Filter string
}

// DefaultBenchTime and QuickBenchTime are the -quick=false/-quick=true
// per-case budgets. The committed BENCH_core.json baseline is recorded
// with -quick — the same budget the CI gate measures with — so the
// comparison is mode-for-mode; the full budget is for humans reading
// precise numbers (EXPERIMENTS.md E5).
const (
	DefaultBenchTime = 100 * time.Millisecond
	QuickBenchTime   = 10 * time.Millisecond
)

const maxIters = 1 << 30

// Run measures every case and returns the results in case order.
func Run(cases []Case, opts Options) ([]Result, error) {
	if opts.BenchTime <= 0 {
		opts.BenchTime = DefaultBenchTime
	}
	var results []Result
	for _, c := range cases {
		if opts.Filter != "" && !strings.Contains(c.Path, opts.Filter) {
			continue
		}
		r, err := runCase(c, opts.BenchTime)
		if err != nil {
			return nil, fmt.Errorf("bench: %s n=%d: %w", c.Path, c.N, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// runCase calibrates the iteration count the way testing.B does — run once,
// scale up until the measured duration reaches the budget — then measures
// three times at the calibrated count and keeps the minimum ns/op and
// allocs/op: the minimum is the standard noise-free estimate (scheduler
// preemptions and GC pauses only ever add).
func runCase(c Case, d time.Duration) (Result, error) {
	n := 1
	var r sample
	for {
		var err error
		r, err = measure(c, n)
		if err != nil {
			return Result{}, err
		}
		if r.elapsed >= d || n >= maxIters {
			break
		}
		grow := int(float64(n) * 1.2 * float64(d) / float64(max(r.elapsed, time.Microsecond)))
		n = clamp(grow, n+1, n*100)
	}
	best := r.Result
	for extra := 0; extra < 2; extra++ {
		s, err := measure(c, n)
		if err != nil {
			return Result{}, err
		}
		if s.NsPerOp < best.NsPerOp {
			best.NsPerOp = s.NsPerOp
		}
		if s.AllocsPerOp < best.AllocsPerOp {
			best.AllocsPerOp = s.AllocsPerOp
			best.BytesPerOp = s.BytesPerOp
		}
	}
	return best, nil
}

type sample struct {
	Result
	elapsed time.Duration
}

// measure executes one calibrated run of the case body with N=n iterations.
// Allocation counts come from runtime.MemStats deltas, which are exact
// (every goroutine's allocations are counted); a GC beforehand keeps
// mid-run collections of setup garbage out of the window.
func measure(c Case, n int) (s sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(benchFail); ok {
				err = fmt.Errorf("%s", f.msg)
				return
			}
			panic(r)
		}
	}()
	runtime.GC()
	t := &T{N: n}
	t.Start() // a body that never calls Start still gets measured end to end
	c.Fn(t)
	t.Stop() // no-op if the body already stopped the window
	allocs := t.endMem.Mallocs - t.mem.Mallocs
	bytes := t.endMem.TotalAlloc - t.mem.TotalAlloc
	return sample{
		Result: Result{
			Path:        c.Path,
			N:           c.N,
			Iters:       n,
			NsPerOp:     float64(t.elapsed.Nanoseconds()) / float64(n),
			BytesPerOp:  float64(bytes) / float64(n),
			AllocsPerOp: float64(allocs) / float64(n),
			Metrics:     t.metrics,
		},
		elapsed: t.elapsed,
	}, nil
}

// NewDoc assembles the JSON document for a completed run.
func NewDoc(sizes []int, quick bool, results []Result, wall time.Duration) Doc {
	return Doc{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Quick:      quick,
		Sizes:      sizes,
		WallSecs:   wall.Seconds(),
		Results:    results,
	}
}

// RunForTesting adapts a Case to a *testing.B-driven benchmark, so every
// harness case is also visible to `go test -bench` (and to the bench smoke
// test that runs each Benchmark* for one iteration).
func RunForTesting(b interface {
	ReportAllocs()
	ResetTimer()
	StopTimer()
	ReportMetric(float64, string)
}, c Case, iters int) {
	t := &T{
		N:       iters,
		onStart: func() { b.ReportAllocs(); b.ResetTimer() },
		onStop:  b.StopTimer,
	}
	c.Fn(t)
	keys := make([]string, 0, len(t.metrics))
	for k := range t.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(t.metrics[k], k)
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
