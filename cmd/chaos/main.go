// Command chaos renders the survivability table of EXPERIMENTS.md (E4): it
// executes seeded crash/restart fault plans against the live runtime —
// crash a process, drop its volatile state, keep its stable store, run
// survivor traffic into the hole, rehydrate from stable storage, recover —
// and verifies every recovery session against the ground-truth oracles
// before reporting it.
//
// The grid is fault pattern × system size × middleware stack
// (protocol+collector); cells are independent and run on the internal/sweep
// worker pool. Cells execute the engine in deterministic mode, so any
// -workers value renders a byte-identical text table. -format json adds
// per-cell timings and mean recovery latency.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/storage"
	"repro/internal/sweep"

	// Registers the log backend with storage.Open for -store log.
	_ "repro/internal/storage/logstore"
)

func main() {
	var (
		patterns  = flag.String("patterns", "single,correlated,rolling,repeated", "comma-separated fault patterns")
		partition = flag.String("partition", "", "comma-separated partition patterns to add to the grid: split|flap|isolate|partition-recovery (heal latency lands in the JSON output)")
		sizes     = flag.String("sizes", "4,8", "comma-separated process counts")
		seeds     = flag.Int("seeds", 2, "seeded fault plans averaged per cell")
		cycles    = flag.Int("cycles", 4, "crash/restart cycles per run")
		ops       = flag.Int("ops", 150, "application operations per drive phase")
		pcheck    = flag.Float64("pcheckpoint", 0.2, "basic checkpoint probability")
		workers   = flag.Int("workers", runtime.NumCPU(), "worker pool size (result order does not depend on it)")
		format    = flag.String("format", "text", "output format: text|json")
		store     = flag.String("store", "mem", "stable-storage backend for observed runs: mem|log")
		torture   = flag.Bool("torture", false, "run the log store's crash-torture matrix instead of the survivability grid")
	)
	var obsf observedFlags
	flag.BoolVar(&obsf.metrics, "metrics", false, "observed single run: print the metrics-registry snapshot")
	flag.StringVar(&obsf.traceOut, "trace-out", "", "observed single run: write the flight recording as JSONL to this file (- for stdout)")
	flag.BoolVar(&obsf.traceDiagram, "trace-diagram", false, "observed single run: render the flight recording as a space-time diagram")
	flag.StringVar(&obsf.debugHTTP, "debug-http", "", "observed single run: serve /metrics, /trace, expvar and pprof on this address")
	flag.Parse()

	pats, err := parsePatterns(*patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *partition != "" {
		parts, err := parsePatterns(*partition)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, p := range parts {
			if !p.UsesPartitions() {
				fmt.Fprintf(os.Stderr, "chaos: %s is not a partition pattern (want split|flap|isolate|partition-recovery)\n", p)
				os.Exit(2)
			}
		}
		pats = append(pats, parts...)
	}
	ns, err := sweep.ParseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "chaos: unknown format %q\n", *format)
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "chaos: -seeds must be >= 1, got %d\n", *seeds)
		os.Exit(2)
	}
	if *cycles < 1 {
		fmt.Fprintf(os.Stderr, "chaos: -cycles must be >= 1, got %d\n", *cycles)
		os.Exit(2)
	}
	backend, err := storage.ParseBackend(*store)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *torture {
		if err := runTorture(*seeds, *ops); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if obsf.active() {
		if err := runObserved(obsf, backend, pats[0], ns[0], *cycles, *ops, *pcheck); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	g := sweep.Default(sweep.Chaos)
	g.Patterns = pats
	g.Sizes = ns
	g.Seeds = *seeds
	g.Cycles = *cycles
	g.Ops = *ops
	g.PCheckpoint = *pcheck
	g.Workers = *workers
	if g.Workers <= 0 {
		g.Workers = runtime.NumCPU()
	}

	start := time.Now()
	results, err := g.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(start)

	if *format == "json" {
		err = sweep.WriteJSON(os.Stdout, g, results, wall)
	} else {
		err = sweep.WriteText(os.Stdout, g.Table, results)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func parsePatterns(s string) ([]chaos.Pattern, error) {
	if s == "" {
		return nil, fmt.Errorf("chaos: empty -patterns")
	}
	var out []chaos.Pattern
	for _, name := range strings.Split(s, ",") {
		p, err := chaos.ParsePattern(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
