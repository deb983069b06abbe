package main

import (
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
	"repro/internal/trace"
)

// observedFlags gates the instrumented single-run mode: setting any of them
// replaces the survivability grid with one fully observed run.
type observedFlags struct {
	metrics      bool   // print the metrics-registry snapshot after the run
	traceOut     string // write the flight recording as JSONL ("-" = stdout)
	traceDiagram bool   // render the flight recording as a space-time diagram
	debugHTTP    string // serve /metrics, /trace, expvar and pprof during the run
}

func (f observedFlags) active() bool {
	return f.metrics || f.traceOut != "" || f.traceDiagram || f.debugHTTP != ""
}

// runObserved executes one instrumented survivability run — FDAS with
// RDT-LGC over the real TCP mesh, deterministic — and exports what the
// instruments captured. The grid's aggregate numbers answer "how well does
// it survive"; this mode answers "what exactly happened", one event and one
// counter at a time.
func runObserved(f observedFlags, backend storage.Backend, pat chaos.Pattern, n, cycles, ops int, pcheck float64) error {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0)
	if f.debugHTTP != "" {
		ln, err := obs.ServeDebug(f.debugHTTP, reg, rec)
		if err != nil {
			return fmt.Errorf("chaos: debug listener: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "chaos: debug listener on http://%s/\n", ln.Addr())
	}

	plan, err := chaos.NewPlan(chaos.PlanOptions{
		N: n, Pattern: pat, Cycles: cycles, Ops: ops, Seed: 1,
	})
	if err != nil {
		return err
	}
	const proto, collector = "FDAS", core.RDTLGC
	cfg, err := chaos.Stack(proto, collector)
	if err != nil {
		return err
	}
	cfg.GlobalLI, cfg.Deterministic, cfg.PCheckpoint, cfg.TCP = true, true, pcheck, true
	cfg.Obs = obs.Options{Registry: reg, Recorder: rec}
	if backend != storage.Mem {
		dir, err := os.MkdirTemp("", "rdt-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.NewStore = logstore.Factory(dir)
	}
	res, err := chaos.Run(cfg, plan)
	if err != nil {
		return err
	}
	fmt.Printf("observed run: %s n=%d %s+%s over TCP, %s storage — %d crashes, %d recoveries verified, mean recovery %s\n",
		pat, n, proto, collector, backend, res.Crashes, res.Recoveries, res.MeanLatency())

	if f.metrics {
		fmt.Println()
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if f.traceDiagram {
		fmt.Println()
		fmt.Println(trace.Render(trace.FromEvents(n, rec.Events())))
		fmt.Println(trace.Legend())
	}
	if f.traceOut != "" {
		w := os.Stdout
		if f.traceOut != "-" {
			file, err := os.Create(f.traceOut)
			if err != nil {
				return err
			}
			defer file.Close()
			w = file
		}
		if err := rec.WriteJSONL(w); err != nil {
			return err
		}
		if f.traceOut != "-" {
			// The run records its history, so its recorder keeps every event.
			fmt.Fprintf(os.Stderr, "chaos: wrote %d events to %s\n", rec.Len(), f.traceOut)
		}
	}
	return nil
}
