package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"
)

// Report runs g and writes its results to w as the text table, or as JSON
// when format is "json" — the output of cmd/sweep and cmd/chaos. A worker
// count of zero or less becomes runtime.NumCPU() first, so the JSON records
// the pool that ran, not the raw flag value.
func Report(w io.Writer, g Grid, format string) error {
	if g.Workers <= 0 {
		g.Workers = runtime.NumCPU()
	}
	start := time.Now()
	results, err := g.Run()
	if err != nil {
		return err
	}
	if format == "json" {
		return WriteJSON(w, g, results, time.Since(start))
	}
	return WriteText(w, g.Table, results)
}

// WriteText renders results as the tab-aligned table the seed CLI printed,
// one row per cell in grid order. Because Run's result order is
// deterministic, the bytes are identical for every worker count.
func WriteText(w io.Writer, table Table, results []Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	switch table {
	case Collectors:
		fmt.Fprintln(tw, "workload\tn\tcollector\tretained/proc mean\tretained/proc max\tglobal peak\tcollect ratio\tforced ckpts")
		for _, r := range results {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%.2f\t%d\t%d\t%.4f\t%d\n",
				r.Cell.Workload, r.Cell.N, r.Cell.Variant(),
				r.RetainedMean, r.RetainedMax, r.GlobalPeak, r.CollectRatio, r.Forced)
		}
	case Protocols:
		fmt.Fprintln(tw, "workload\tn\tprotocol\tRDT\tbasic\tforced\tforced/basic\tretained/proc mean")
		for _, r := range results {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%v\t%d\t%d\t%.2f\t%.2f\n",
				r.Cell.Workload, r.Cell.N, r.Cell.Variant(), r.RDT,
				r.Basic, r.Forced, r.ForcedPerBasic, r.RetainedMean)
		}
	case Rollback:
		fmt.Fprintln(tw, "workload\tn\tprotocol\tmean rolled\tmax rolled\tvolatile lost\tdomino-to-start")
		for _, r := range results {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%.3f\t%d\t%.2f%%\t%d\n",
				r.Cell.Workload, r.Cell.N, r.Cell.Variant(),
				r.MeanRolled, r.MaxRolled, r.VolatileLostPct, r.DominoToStart)
		}
	case Chaos:
		// No wall-clock column here: the text table must be byte-identical
		// for every worker count and run; recovery latency lives in the
		// JSON output.
		fmt.Fprintln(tw, "pattern\tn\tstack\tcrashes\trecoveries\tpartitions\theals\tmean rolled\tmax rolled\torphans\treplayed\tretained max")
		for _, r := range results {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.3f\t%d\t%d\t%d\t%d\n",
				r.Cell.Pattern, r.Cell.N, r.Cell.Variant(),
				r.Crashes, r.Recoveries, r.Partitions, r.Heals,
				r.MeanRolled, r.MaxRolled,
				r.Orphans, r.Replayed, r.RetainedAfterMax)
		}
	case Compression:
		fmt.Fprintln(tw, "n\tengine/mode\tsends\tpb entries\tentries/msg\tpb bytes/msg\t% of full")
		for _, r := range results {
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%.2f\t%.1f\t%.1f%%\n",
				r.Cell.N, r.Cell.Variant(), r.Sends, r.PBEntries,
				r.EntriesPerMsg, r.PBBytesPerMsg, r.PBOfFullPct)
		}
	default:
		return fmt.Errorf("sweep: unknown table %d", int(table))
	}
	return tw.Flush()
}

// RunDoc captures one engine execution for JSON output: every grid
// parameter needed to reproduce the numbers, the wall clock, and each
// cell's columns and timing.
type RunDoc struct {
	Table       string   `json:"table"`
	Workers     int      `json:"workers"`
	Workloads   []string `json:"workloads,omitempty"`
	Patterns    []string `json:"patterns,omitempty"`
	Sizes       []int    `json:"sizes"`
	Variants    []string `json:"variants"`
	Seeds       int      `json:"seeds"`
	Ops         int      `json:"ops"`
	PCheckpoint float64  `json:"pcheckpoint"`
	GlobalEvery int      `json:"globalevery,omitempty"`
	Cycles      int      `json:"cycles,omitempty"`
	Cells       int      `json:"cells"`
	WallSecs    float64  `json:"wall_clock_seconds"`
	Rows        []RowDoc `json:"rows"`
}

// RowDoc is one cell in JSON form. Columns that do not apply to the row's
// table are omitted.
type RowDoc struct {
	Workload    string  `json:"workload,omitempty"`
	Pattern     string  `json:"pattern,omitempty"`
	N           int     `json:"n"`
	Variant     string  `json:"variant"`
	ElapsedSecs float64 `json:"elapsed_seconds"`

	RetainedMean *float64 `json:"retained_per_proc_mean,omitempty"`
	RetainedMax  *int     `json:"retained_per_proc_max,omitempty"`
	GlobalPeak   *int     `json:"global_peak,omitempty"`
	CollectRatio *float64 `json:"collect_ratio,omitempty"`
	Forced       *int     `json:"forced,omitempty"`

	RDT            *bool    `json:"rdt,omitempty"`
	Basic          *int     `json:"basic,omitempty"`
	ForcedPerBasic *float64 `json:"forced_per_basic,omitempty"`

	MeanRolled      *float64 `json:"mean_rolled,omitempty"`
	MaxRolled       *int     `json:"max_rolled,omitempty"`
	VolatileLostPct *float64 `json:"volatile_lost_pct,omitempty"`
	DominoToStart   *int     `json:"domino_to_start,omitempty"`

	Crashes          *int     `json:"crashes,omitempty"`
	Recoveries       *int     `json:"recoveries,omitempty"`
	Orphans          *int     `json:"orphans,omitempty"`
	Replayed         *int     `json:"replayed,omitempty"`
	RetainedAfterMax *int     `json:"retained_after_max,omitempty"`
	RecoverySecs     *float64 `json:"recovery_latency_seconds,omitempty"`
	Partitions       *int     `json:"partitions,omitempty"`
	Heals            *int     `json:"heals,omitempty"`
	HealSecs         *float64 `json:"heal_latency_seconds,omitempty"`

	Sends         *int     `json:"sends,omitempty"`
	PBEntries     *int     `json:"pb_entries,omitempty"`
	EntriesPerMsg *float64 `json:"entries_per_msg,omitempty"`
	PBBytesPerMsg *float64 `json:"pb_bytes_per_msg,omitempty"`
	PBOfFullPct   *float64 `json:"pb_pct_of_full,omitempty"`
}

// Doc assembles the JSON document for one completed run.
func Doc(g Grid, results []Result, wall time.Duration) RunDoc {
	doc := RunDoc{
		Table:       g.Table.String(),
		Workers:     g.Workers,
		Seeds:       g.Seeds,
		Ops:         g.Ops,
		PCheckpoint: g.PCheckpoint,
		GlobalEvery: g.GlobalEvery,
		Sizes:       g.Sizes,
		Cycles:      g.Cycles,
		Cells:       len(results),
		WallSecs:    wall.Seconds(),
	}
	for _, k := range g.Workloads {
		doc.Workloads = append(doc.Workloads, k.String())
	}
	for _, p := range g.Patterns {
		doc.Patterns = append(doc.Patterns, p.String())
	}
	switch g.Table {
	case Collectors:
		doc.Variants = g.Collectors
	case Chaos:
		for _, v := range g.Chaos {
			doc.Variants = append(doc.Variants, v.Name())
		}
	case Compression:
		for _, v := range g.Compress {
			doc.Variants = append(doc.Variants, v.Name())
		}
	default:
		doc.Variants = g.Protocols
	}
	for _, r := range results {
		row := RowDoc{
			N:           r.Cell.N,
			Variant:     r.Cell.Variant(),
			ElapsedSecs: r.Elapsed.Seconds(),
		}
		switch g.Table {
		case Chaos:
			row.Pattern = r.Cell.Pattern.String()
		case Compression:
			// The compression table has no workload axis; its rows are
			// keyed by (n, engine/mode) alone.
		default:
			row.Workload = r.Cell.Workload.String()
		}
		switch g.Table {
		case Collectors:
			row.RetainedMean = ptr(r.RetainedMean)
			row.RetainedMax = ptr(r.RetainedMax)
			row.GlobalPeak = ptr(r.GlobalPeak)
			row.CollectRatio = ptr(r.CollectRatio)
			row.Forced = ptr(r.Forced)
		case Protocols:
			row.RDT = ptr(r.RDT)
			row.Basic = ptr(r.Basic)
			row.Forced = ptr(r.Forced)
			row.ForcedPerBasic = ptr(r.ForcedPerBasic)
			row.RetainedMean = ptr(r.RetainedMean)
		case Rollback:
			row.MeanRolled = ptr(r.MeanRolled)
			row.MaxRolled = ptr(r.MaxRolled)
			row.VolatileLostPct = ptr(r.VolatileLostPct)
			row.DominoToStart = ptr(r.DominoToStart)
		case Chaos:
			row.Crashes = ptr(r.Crashes)
			row.Recoveries = ptr(r.Recoveries)
			row.MeanRolled = ptr(r.MeanRolled)
			row.MaxRolled = ptr(r.MaxRolled)
			row.Orphans = ptr(r.Orphans)
			row.Replayed = ptr(r.Replayed)
			row.RetainedAfterMax = ptr(r.RetainedAfterMax)
			row.RecoverySecs = ptr(r.RecoverySecs)
			if r.Cell.Pattern.UsesPartitions() {
				row.Partitions = ptr(r.Partitions)
				row.Heals = ptr(r.Heals)
				row.HealSecs = ptr(r.HealSecs)
			}
		case Compression:
			row.Sends = ptr(r.Sends)
			row.PBEntries = ptr(r.PBEntries)
			row.EntriesPerMsg = ptr(r.EntriesPerMsg)
			row.PBBytesPerMsg = ptr(r.PBBytesPerMsg)
			row.PBOfFullPct = ptr(r.PBOfFullPct)
		}
		doc.Rows = append(doc.Rows, row)
	}
	return doc
}

// WriteJSON renders one run as an indented JSON document.
func WriteJSON(w io.Writer, g Grid, results []Result, wall time.Duration) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Doc(g, results, wall))
}

func ptr[T any](v T) *T { return &v }
