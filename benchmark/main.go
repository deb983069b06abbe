// Command benchmark is the one yardstick for the checkpointing middleware's
// performance: four workloads drive the live runtime (internal/runtime)
// through its public functions, every end-to-end metric is printed by name
// with its unit, outputs are checked, and a separate traced run attributes
// the cost to the layers. See README.md in this directory.
//
//	go run ./benchmark -seed 1                 # every workload, untraced + traced
//	go run ./benchmark -aa                     # the set as two alternating sides on the same code, against the bounds
//	go run ./benchmark -smoke                  # the same, with 1 s episodes
//	go run ./benchmark --workload ring-saturated --seed 1 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json's command names; it prints one JSON
// object as the last line of its standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

// wallCapSeconds is the contract's cap on one run of one workload.
const wallCapSeconds = 180

// aaRounds is how many runs each side of the A/A comparison gets.
const aaRounds = 3

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print one JSON line (default: all, human-readable)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs: destinations, crash schedule, network delays")
		seconds = flag.Int("seconds", 20, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		aa      = flag.Bool("aa", false, "run the set (or -workload) as two alternating sides on the same code and hold their medians against BENCHMARK.json's bounds")
		smoke   = flag.Bool("smoke", false, "1 s episodes, one measured: a functional check, not a measurement")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	procs := fixProcs()
	o := options{Seed: *seed, Seconds: *seconds, Shape: fullShape, OutDir: filepath.Join("benchmark", "out"), Log: os.Stderr}
	if *smoke {
		o.Shape, o.Seconds = smokeShape, 1
	}
	if o.Seconds < 1 || o.Seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be 1..60")
		os.Exit(2)
	}

	var err error
	switch {
	case *aa:
		o.Log = os.Stdout
		err = runAA(o, procs, *name)
	case *name != "":
		err = runOne(*name, o, *trace == 1, procs)
	default:
		o.Log = os.Stdout
		_, err = runAll(o, procs, "", true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// fixProcs pins GOMAXPROCS to min(cores, 4): the load generator and the
// cluster share this one process, and numbers are only comparable at one
// setting, so the setting is fixed here and printed with every result.
func fixProcs() int {
	procs := goruntime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	goruntime.GOMAXPROCS(procs)
	return procs
}

// runOne is the driver's form: one workload, one JSON object on the last line
// of standard output; progress goes to standard error.
func runOne(name string, o options, traced bool, procs int) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(o.Log, "# GOMAXPROCS=%d seed=%d seconds=%d trace=%v\n", procs, o.Seed, o.Seconds, traced)
	var rep *report
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		rep, err = traceRun(w, o, 0)
	} else {
		rep, err = measure(w, o)
	}
	if err != nil {
		return err
	}
	printReport(o.Log, rep, defs, !traced)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, map[string]value{}}
	for _, d := range defs {
		result.Metrics[d.Name] = value{rep.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return fmt.Errorf("%s: %d of %d operations failed", w.Name, rep.Failed, rep.Attempted)
	}
	return nil
}

// runAll runs every workload (or only the named one): the untraced run and,
// when withTrace is set, one traced episode plus the isolated drives. It
// returns the untraced reports by workload name.
func runAll(o options, procs int, only string, withTrace bool) (map[string]*report, error) {
	start := time.Now()
	fmt.Fprintf(o.Log, "# GOMAXPROCS=%d seed=%d seconds=%d (loopback TCP and injected delay, not a real link)\n",
		procs, o.Seed, o.Seconds)
	reps := map[string]*report{}
	failed := int64(0)
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		resetPeakRSS() // several workloads share this process
		rep, err := measure(w, o)
		if err != nil {
			return nil, err
		}
		printReport(o.Log, rep, endToEnd, true)
		reps[w.Name] = rep
		failed += rep.Failed
		if withTrace {
			to := o
			to.Seconds = int(math.Ceil(o.Shape.Window.Seconds() * float64(o.Shape.Windows))) // one episode
			resetPeakRSS()
			trep, err := traceRun(w, to, rep.Metrics["msgs_per_s"])
			if err != nil {
				return nil, err
			}
			printReport(o.Log, trep, perLayer, false)
			failed += trep.Failed
		}
	}
	wall := time.Since(start).Seconds()
	fmt.Fprintf(o.Log, "# total wall time %.1f s for %d workloads (the contract caps one run of one workload at %d s)\n",
		wall, len(workloads), wallCapSeconds)
	if failed > 0 {
		return reps, fmt.Errorf("%d operations failed", failed)
	}
	return reps, nil
}

// printReport writes one workload's metrics, one per line, with units and the
// sample counts behind the timings; withUnbounded adds the end-to-end values
// that carry no bound.
func printReport(w io.Writer, rep *report, defs []metricDef, withUnbounded bool) {
	fmt.Fprintf(w, "== %s  (%.1f s wall", rep.Workload, rep.Wall.Seconds())
	if rep.Workload == "crash-recover" {
		fmt.Fprint(w, "; injected delay uniform 0.2-1 ms")
	}
	fmt.Fprintln(w, ")")
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.4f %-6s", d.Name, rep.Metrics[d.Name], d.Unit)
		switch d.Name {
		case "setup_s":
			fmt.Fprintf(w, " (%d set-ups)", rep.Samples["setup"])
		case "msgs_per_s", "cpu_us_per_msg", "allocs_per_msg":
			fmt.Fprintf(w, " (%d windows)", rep.Samples["windows"])
		case "deliver_p50_ms":
			fmt.Fprintf(w, " (%d samples)", rep.Samples["deliver"])
		case "ckpt_p50_ms":
			fmt.Fprintf(w, " (%d samples)", rep.Samples["ckpt"])
		case "recover_p50_ms":
			fmt.Fprintf(w, " (%d samples)", rep.Samples["recover"])
		}
		if raw, ok := rep.Metrics["raw."+d.Name]; ok {
			fmt.Fprintf(w, " as measured %.6g", raw)
		}
		fmt.Fprintln(w)
	}
	if withUnbounded {
		fmt.Fprintf(w, "%-34s %16.4f        (machine speed against nominal; the values above are at nominal speed, see README)\n",
			"host_speed", rep.Metrics["host_speed"])
		for _, u := range unbounded {
			fmt.Fprintf(w, "%-34s %16.4f        (no bound; per-layer %s)\n", u[0], rep.Metrics[u[0]], u[1])
		}
	}
	share := 0.0
	if rep.Attempted > 0 {
		share = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "%-34s %16.6f %-6s (%d failed of %d attempted; %d sends refused during recovery halts)\n",
		"failed_ops_share", share, "share", rep.Failed, rep.Attempted, rep.Refused)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// benchmarkFile is the part of BENCHMARK.json the A/A mode and the tests read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	err = json.Unmarshal(raw, &bf)
	return bf, err
}

// worsening is how much worse b is than a, as a share of a, for a metric
// where better is "lower" or "higher"; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA measures the untraced set (or only the named workload) on the same
// code as two sides, A and B, alternating A B A B A B (aaRounds each), and
// holds the median of every end-to-end metric × workload against its bound,
// in both directions: on the same code neither side may look like a
// regression of the other. One pair of single runs is not enough — a whole
// 25 s run can sit in a noisy-neighbour spell — which is also why a claim
// needs ten alternating pairs.
func runAA(o options, procs int, only string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("A/A needs the bounds: %w", err)
	}
	var sides [2]map[string]map[string][]float64 // side → workload → metric → one value per round
	for i := range sides {
		sides[i] = map[string]map[string][]float64{}
	}
	for r := 0; r < aaRounds; r++ {
		for i := range sides {
			got, err := runAll(o, procs, only, false)
			if err != nil {
				return err
			}
			for name, rep := range got {
				if sides[i][name] == nil {
					sides[i][name] = map[string][]float64{}
				}
				for _, m := range bf.EndToEnd {
					sides[i][name][m.Name] = append(sides[i][name][m.Name], rep.Metrics[m.Name])
				}
			}
		}
	}
	var names []string
	for n := range sides[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	out := 0
	fmt.Fprintf(o.Log, "medians of %d alternating runs per side\n", aaRounds)
	fmt.Fprintf(o.Log, "%-16s %-16s %14s %14s %8s %6s\n", "workload", "metric", "side A", "side B", "diff", "bound")
	for _, n := range names {
		for _, m := range bf.EndToEnd {
			va, vb := median(sides[0][n][m.Name]), median(sides[1][n][m.Name])
			diff := math.Max(worsening(va, vb, m.Better), worsening(vb, va, m.Better))
			verdict := ""
			if diff > m.Bound {
				verdict = "  OUT OF BOUNDS"
				out++
			}
			fmt.Fprintf(o.Log, "%-16s %-16s %14.4f %14.4f %7.1f%% %5.0f%%%s\n",
				n, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if out > 0 {
		return fmt.Errorf("A/A: %d end-to-end metrics differ by more than their bound on the same code", out)
	}
	return nil
}
