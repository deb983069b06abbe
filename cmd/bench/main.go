// Command bench runs the unified hot-path performance harness
// (internal/bench) and gates regressions against the checked-in baseline.
//
// The harness measures the per-message cost centers of the middleware —
// vclock merge/clone, the FDAS forced-checkpoint decision, the RDT-LGC
// collect path, checkpoint encoding and durable save/rehydrate, transport
// framing, live-runtime end-to-end delivery, and full simulator runs —
// swept across n ∈ {4, 8, 16, 32, 64, 128}, reporting ns/op, B/op,
// allocs/op and the paper-predicted metrics (retained checkpoints,
// collection ratio).
//
// Modes:
//
//	go run ./cmd/bench                       # human-readable table (full budget)
//	go run ./cmd/bench -quick -out BENCH_core.json   # record the gate baseline
//	go run ./cmd/bench -quick -check BENCH_core.json   # the CI perf gate:
//	    exit non-zero on any allocs/op regression or a missing case; ns/op
//	    is printed as information (time is judged by go run ./benchmark)
//
// The baseline must be recorded in the same mode the gate measures with
// (-quick); -check refuses a mode-mismatched baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/sweep"
)

func main() {
	var (
		sizes   = flag.String("sizes", "4,8,16,32,64,128,256,512,1024", "comma-separated process counts")
		quick   = flag.Bool("quick", false, "short per-case budget (CI-sized run)")
		jsonOut = flag.Bool("json", false, "emit the JSON document instead of the table")
		outFile = flag.String("out", "", "also write the JSON document to this file")
		check   = flag.String("check", "", "baseline JSON to gate against; exit 1 on regression")
		filter  = flag.String("filter", "", "only run cases whose path contains this substring")
	)
	flag.Parse()

	ns, err := sweep.ParseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// The gate's missing-case rule (bench coverage must not shrink) means
	// a partial run can never pass -check, and a partial -out would record
	// a baseline that silently gates only a subset from then on: refuse
	// both combinations rather than let the gate erode.
	if (*check != "" || *outFile != "") && (*filter != "" || !slices.Equal(ns, bench.DefaultSizes)) {
		fmt.Fprintln(os.Stderr, "bench: -check and -out require the full suite; drop -filter and non-default -sizes")
		os.Exit(2)
	}

	cases := bench.Suite(ns)
	opts := bench.Options{BenchTime: bench.DefaultBenchTime, Filter: *filter}
	if *quick {
		opts.BenchTime = bench.QuickBenchTime
	}

	start := time.Now()
	results, err := bench.Run(cases, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	doc := bench.NewDoc(ns, *quick, results, time.Since(start))

	if *outFile != "" {
		if err := writeDoc(*outFile, doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		writeTable(os.Stdout, results)
	}

	if *check != "" {
		base, err := readDoc(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if base.Quick != *quick {
			fmt.Fprintf(os.Stderr,
				"bench: %s was recorded with quick=%v but this run used quick=%v; "+
					"the gate is only meaningful mode-for-mode (re-record with -quick -out)\n",
				*check, base.Quick, *quick)
			os.Exit(2)
		}
		// A baseline that does not cover the whole suite (recorded by an
		// older binary, or hand-edited) would gate only a subset; demand a
		// re-record instead of pretending the uncovered cases passed.
		have := make(map[string]bool, len(base.Results))
		for _, r := range base.Results {
			have[fmt.Sprintf("%s#%d", r.Path, r.N)] = true
		}
		uncovered := 0
		example := ""
		for _, c := range cases {
			if k := fmt.Sprintf("%s#%d", c.Path, c.N); !have[k] {
				uncovered++
				if example == "" {
					example = fmt.Sprintf("%s n=%d", c.Path, c.N)
				}
			}
		}
		if uncovered > 0 {
			fmt.Fprintf(os.Stderr,
				"bench: %s lacks %d suite case(s) (e.g. %s); re-record the baseline with -quick -out\n",
				*check, uncovered, example)
			os.Exit(2)
		}
		regs := bench.Compare(cases, base, results)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d regression(s) against %s:\n", len(regs), *check)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: no regressions against %s (%d cases, allocs exact, ns/op informational)\n",
			*check, len(results))
	}
}

func writeTable(w *os.File, results []bench.Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "path\tn\titers\tns/op\tB/op\tallocs/op\tmetrics")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\t%.2f\t%s\n",
			r.Path, r.N, r.Iters, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, metricsCol(r))
	}
	_ = tw.Flush()
}

func metricsCol(r bench.Result) string {
	if len(r.Metrics) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.2f", k, r.Metrics[k])
	}
	return strings.Join(parts, " ")
}

func writeDoc(path string, doc bench.Doc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readDoc(path string) (bench.Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return bench.Doc{}, err
	}
	var doc bench.Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return bench.Doc{}, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return doc, nil
}
