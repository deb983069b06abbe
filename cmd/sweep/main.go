// Command sweep runs the experiment grids of EXPERIMENTS.md — the
// "evaluation in a practical environment" the paper lists as future work.
// Three tables are available:
//
//	-table collectors   every workload × collector × size: steady-state
//	                    retained checkpoints and collection ratios (E1)
//	-table protocols    every workload × protocol × size: forced-checkpoint
//	                    overhead of the RDT protocol hierarchy (E2)
//	-table rollback     every workload × protocol × size: rollback
//	                    propagation after crashes (Agbaria et al. axis) (E3)
//	-table compress     size × engine × piggyback mode: control-information
//	                    cost of incremental dependency-vector piggybacking,
//	                    through both kernel drivers (E6)
//
// Grid cells are independent, so the engine (internal/sweep) runs them on a
// bounded worker pool; -workers controls its size and any value renders a
// byte-identical table. -format json emits the machine-readable form with
// per-cell timings.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sweep"
)

func main() {
	var (
		ops     = flag.Int("ops", 3000, "operations per run")
		seeds   = flag.Int("seeds", 3, "seeds averaged per cell")
		sizes   = flag.String("sizes", "4,8,16", "comma-separated process counts")
		pcheck  = flag.Float64("pcheckpoint", 0.2, "basic checkpoint probability")
		every   = flag.Int("globalevery", 1, "events between control-message rounds for the global collectors (sync-opt, rl-gc)")
		table   = flag.String("table", "collectors", "table to produce: collectors|protocols|rollback|compress")
		workers = flag.Int("workers", runtime.NumCPU(), "worker pool size (result order does not depend on it)")
		format  = flag.String("format", "text", "output format: text|json")
	)
	flag.Parse()

	tab, err := sweep.ParseTable(*table)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ns, err := sweep.ParseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "sweep: unknown format %q\n", *format)
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "sweep: -seeds must be >= 1, got %d\n", *seeds)
		os.Exit(2)
	}

	g := sweep.Default(tab)
	g.Sizes = ns
	g.Ops = *ops
	g.Seeds = *seeds
	g.PCheckpoint = *pcheck
	g.GlobalEvery = *every
	g.Workers = *workers
	if g.Workers <= 0 {
		// Normalize here so JSON output records the worker count
		// that actually ran, not the raw flag value.
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
