// Package sweep is the parallel experiment engine behind cmd/sweep and
// cmd/figures. A Grid names the axes of one experiment table from
// EXPERIMENTS.md (workloads × protocols-or-collectors × system sizes, each
// cell averaged over seeds); Cells expands it into independent jobs; Run
// executes the jobs on a bounded worker pool and returns results in grid
// order, so any worker count produces byte-identical tables.
package sweep

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ccp"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/metrics"
	"repro/internal/protocol"
	rt "repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Table selects which experiment table a Grid produces.
type Table int

const (
	// Collectors measures steady-state retained checkpoints and collection
	// ratios for every garbage collector (E1).
	Collectors Table = iota + 1
	// Protocols measures the forced-checkpoint overhead of the RDT protocol
	// hierarchy (E2).
	Protocols
	// Rollback measures rollback propagation after crashes, the Agbaria et
	// al. axis (E3).
	Rollback
	// Chaos measures survivability under injected crash/restart faults on
	// the live runtime: fault pattern × protocol+collector stack →
	// rollback depth, orphans, checkpoints replayed, retention (E4).
	Chaos
	// Compression measures the piggyback cost of full-vector versus
	// incremental dependency-vector transmission, through both engines of
	// the shared middleware kernel (E6).
	Compression
)

// String returns the table name used on the cmd/sweep command line.
func (t Table) String() string {
	switch t {
	case Collectors:
		return "collectors"
	case Protocols:
		return "protocols"
	case Rollback:
		return "rollback"
	case Chaos:
		return "chaos"
	case Compression:
		return "compress"
	default:
		return fmt.Sprintf("table(%d)", int(t))
	}
}

// ParseTable maps a -table flag value to a Table.
func ParseTable(s string) (Table, error) {
	switch s {
	case "collectors":
		return Collectors, nil
	case "protocols":
		return Protocols, nil
	case "rollback":
		return Rollback, nil
	case "chaos":
		return Chaos, nil
	case "compress":
		return Compression, nil
	default:
		return 0, fmt.Errorf("sweep: unknown table %q", s)
	}
}

// ParseSizes maps a -sizes flag value (comma-separated process counts) to
// the grid's size axis. Shared by the cmd/sweep and cmd/chaos CLIs.
func ParseSizes(s string) ([]int, error) {
	var out []int
	var cur int
	seen := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if !seen {
				return nil, fmt.Errorf("sweep: bad -sizes %q", s)
			}
			out = append(out, cur)
			cur, seen = 0, false
			continue
		}
		if s[i] < '0' || s[i] > '9' {
			return nil, fmt.Errorf("sweep: bad -sizes %q", s)
		}
		cur = cur*10 + int(s[i]-'0')
		seen = true
	}
	return out, nil
}

// ProtocolSpec names one checkpointing protocol under measurement and how
// to build a fresh instance of it.
type ProtocolSpec struct {
	Name string
	RDT  bool
	New  func() protocol.Protocol
}

// OverheadProtocols is the protocol axis of the Protocols table, ordered
// from strongest causal tracking to none.
func OverheadProtocols() []ProtocolSpec {
	return []ProtocolSpec{
		{"CBR", true, func() protocol.Protocol { return protocol.NewCBR() }},
		{"Russell", true, func() protocol.Protocol { return protocol.NewRussell() }},
		{"FDI", true, func() protocol.Protocol { return protocol.NewFDI() }},
		{"FDAS", true, func() protocol.Protocol { return protocol.NewFDAS() }},
		{"BCS", false, func() protocol.Protocol { return protocol.NewBCS() }},
		{"none", false, func() protocol.Protocol { return protocol.NewNone() }},
	}
}

// RollbackProtocols is the protocol axis of the Rollback table, RDT
// protocols first.
func RollbackProtocols() []ProtocolSpec {
	return []ProtocolSpec{
		{"FDAS", true, func() protocol.Protocol { return protocol.NewFDAS() }},
		{"FDI", true, func() protocol.Protocol { return protocol.NewFDI() }},
		{"CBR", true, func() protocol.Protocol { return protocol.NewCBR() }},
		{"Russell", true, func() protocol.Protocol { return protocol.NewRussell() }},
		{"BCS", false, func() protocol.Protocol { return protocol.NewBCS() }},
		{"none", false, func() protocol.Protocol { return protocol.NewNone() }},
	}
}

// ChaosVariant is one middleware stack of the Chaos table: a checkpointing
// protocol paired with the collector running under it on the live runtime.
type ChaosVariant struct {
	Protocol  ProtocolSpec
	Collector metrics.CollectorKind
}

// Name returns the stack name, the third key column of the chaos table.
func (v ChaosVariant) Name() string {
	return v.Protocol.Name + "+" + v.Collector.String()
}

// ChaosVariants is the default stack axis of the Chaos table: the paper's
// Algorithm 4 merge (FDAS) and the strictest RDT protocol (CBR), each with
// and without the RDT-LGC collector.
func ChaosVariants() []ChaosVariant {
	fdas := ProtocolSpec{"FDAS", true, func() protocol.Protocol { return protocol.NewFDAS() }}
	cbr := ProtocolSpec{"CBR", true, func() protocol.Protocol { return protocol.NewCBR() }}
	return []ChaosVariant{
		{fdas, metrics.RDTLGC},
		{fdas, metrics.NoGC},
		{cbr, metrics.RDTLGC},
		{cbr, metrics.NoGC},
	}
}

// Grid is one experiment: the cross product of its axes, each cell averaged
// over Seeds independent runs.
type Grid struct {
	Table     Table
	Workloads []workload.Kind
	Sizes     []int // process counts
	// Collectors is the variant axis of the Collectors table.
	Collectors []metrics.CollectorKind
	// Protocols is the variant axis of the Protocols and Rollback tables.
	Protocols []ProtocolSpec
	// Patterns and Chaos are the fault and stack axes of the Chaos table.
	Patterns []chaos.Pattern
	Chaos    []ChaosVariant
	// Compress is the engine×mode axis of the Compression table.
	Compress []CompressVariant

	Seeds       int     // runs averaged per cell
	Ops         int     // operations per run (per drive phase for Chaos)
	PCheckpoint float64 // basic checkpoint probability
	// GlobalEvery is the control-message period for global collectors
	// (Collectors table only; default 1).
	GlobalEvery int
	// Cycles is the number of crash/restart cycles per run (Chaos table
	// only; default 4).
	Cycles int

	// Workers bounds the worker pool in Run (default runtime.NumCPU()).
	// The result order never depends on it.
	Workers int
}

// Default returns the grid cmd/sweep runs for a table when no flags
// override the axes.
func Default(table Table) Grid {
	g := Grid{
		Table:       table,
		Workloads:   workload.Kinds(),
		Sizes:       []int{4, 8, 16},
		Seeds:       3,
		Ops:         3000,
		PCheckpoint: 0.2,
		GlobalEvery: 1,
	}
	switch table {
	case Collectors:
		g.Collectors = metrics.CollectorKinds()
	case Protocols:
		g.Protocols = OverheadProtocols()
	case Rollback:
		g.Protocols = RollbackProtocols()
	case Chaos:
		// Chaos cells run the live runtime, one operation at a time, so the
		// grid is kept smaller than the simulator tables.
		g.Workloads = nil
		g.Patterns = chaos.Patterns()
		g.Chaos = ChaosVariants()
		g.Sizes = []int{4, 8}
		g.Seeds = 2
		g.Ops = 150
		g.Cycles = 4
	case Compression:
		// Compression cells replay one seeded traffic stream through both
		// engines; workloads don't apply (the stream must be FIFO per
		// pair), and the live rows drain the network per operation.
		g.Workloads = nil
		g.Compress = CompressVariants()
		g.Sizes = []int{4, 8, 16, 32}
		g.Ops = 1500
	}
	return g
}

// Cell is one independent job: a (workload, size, variant) point of the
// grid, averaged over the grid's seeds. Index is the cell's position in
// grid order; results are always returned sorted by it.
type Cell struct {
	Index    int
	Table    Table
	Workload workload.Kind
	N        int
	// Exactly one of Collector / Protocol / ChaosVariant / CompressVariant
	// is meaningful, per Table.
	Collector       metrics.CollectorKind
	Protocol        ProtocolSpec
	Pattern         chaos.Pattern
	ChaosVariant    ChaosVariant
	CompressVariant CompressVariant

	Seeds       int
	Ops         int
	PCheckpoint float64
	GlobalEvery int
	Cycles      int
}

// Variant returns the name of the cell's collector, protocol or chaos
// stack, the third key column of every table.
func (c Cell) Variant() string {
	switch c.Table {
	case Collectors:
		return c.Collector.String()
	case Chaos:
		return c.ChaosVariant.Name()
	case Compression:
		return c.CompressVariant.Name()
	default:
		return c.Protocol.Name
	}
}

// Cells expands the grid into jobs in table order: workload-major (fault
// pattern for the chaos table), then size, then variant — the row order of
// the rendered tables.
func (g Grid) Cells() []Cell {
	var cells []Cell
	if g.Table == Chaos {
		for _, pat := range g.Patterns {
			for _, n := range g.Sizes {
				for _, v := range g.Chaos {
					cells = append(cells, Cell{
						Index: len(cells), Table: Chaos, Pattern: pat, N: n,
						ChaosVariant: v, Seeds: g.Seeds, Ops: g.Ops,
						PCheckpoint: g.PCheckpoint, Cycles: g.Cycles,
					})
				}
			}
		}
		return cells
	}
	if g.Table == Compression {
		for _, n := range g.Sizes {
			for _, v := range g.Compress {
				cells = append(cells, Cell{
					Index: len(cells), Table: Compression, N: n,
					CompressVariant: v, Seeds: g.Seeds, Ops: g.Ops,
					PCheckpoint: g.PCheckpoint,
				})
			}
		}
		return cells
	}
	for _, kind := range g.Workloads {
		for _, n := range g.Sizes {
			base := Cell{
				Table: g.Table, Workload: kind, N: n,
				Seeds: g.Seeds, Ops: g.Ops,
				PCheckpoint: g.PCheckpoint, GlobalEvery: g.GlobalEvery,
			}
			switch g.Table {
			case Collectors:
				for _, col := range g.Collectors {
					c := base
					c.Index, c.Collector = len(cells), col
					cells = append(cells, c)
				}
			default:
				for _, pf := range g.Protocols {
					c := base
					c.Index, c.Protocol = len(cells), pf
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// Result is the measured row of one cell. The populated columns depend on
// the cell's table; Elapsed is always the cell's wall-clock cost.
type Result struct {
	Cell    Cell
	Elapsed time.Duration

	// Collectors table.
	RetainedMean float64 // per-process retained checkpoints, mean over time
	RetainedMax  int     // per-process retained checkpoints, max over time
	GlobalPeak   int     // system-wide retained peak
	CollectRatio float64 // fraction of oracle-obsolete checkpoints collected
	Forced       int     // forced checkpoints per run (mean over seeds)

	// Protocols table (Forced and RetainedMean are shared with the above).
	Basic          int     // basic checkpoints per run (mean over seeds)
	ForcedPerBasic float64 // forced/basic overhead ratio

	// Rollback table (MeanRolled and MaxRolled are shared with Chaos).
	MeanRolled      float64 // stable checkpoints rolled back, mean per crash
	MaxRolled       int     // stable checkpoints rolled back, worst case
	VolatileLostPct float64 // % of non-faulty processes losing volatile state
	DominoToStart   int     // crashes dragging some process back to s^0

	// Chaos table.
	Crashes          int     // processes crashed per run (mean over seeds)
	Recoveries       int     // verified recovery sessions per run (mean)
	Orphans          int     // non-faulty processes rolled back per run (mean)
	Replayed         int     // checkpoints reloaded from stable storage per run (mean)
	RetainedAfterMax int     // worst per-process retention right after a recovery
	RecoverySecs     float64 // mean wall clock per recovery session (JSON only)
	Partitions       int     // partition/link faults injected per run (mean; partition patterns)
	Heals            int     // verified heal steps per run (mean; partition patterns)
	HealSecs         float64 // mean wall clock per heal-and-drain (JSON only)

	// Compression table.
	Sends         int     // messages sent per run (mean over seeds)
	PBEntries     int     // dependency-vector entries piggybacked per run (mean)
	EntriesPerMsg float64 // piggybacked entries per message
	PBBytesPerMsg float64 // piggyback bytes per message
	PBOfFullPct   float64 // piggyback bytes as % of the full n-entry vector
}

// Run measures one cell: Seeds independent generated workloads, each
// simulated and aggregated exactly as the seed CLI did.
func (c Cell) Run() (Result, error) {
	start := time.Now()
	res := Result{Cell: c}
	var err error
	switch c.Table {
	case Collectors:
		err = c.runCollectors(&res)
	case Protocols:
		err = c.runProtocols(&res)
	case Rollback:
		err = c.runRollback(&res)
	case Chaos:
		err = c.runChaos(&res)
	case Compression:
		err = c.runCompress(&res)
	default:
		err = fmt.Errorf("sweep: unknown table %d", int(c.Table))
	}
	res.Elapsed = time.Since(start)
	return res, err
}

// script generates the cell's s-th seeded workload. The seed depends only
// on (s, n), matching the seed CLI, so tables stay comparable across PRs.
// Generator panics (e.g. N < 2) surface as errors so one bad cell cannot
// take down the pool.
func (c Cell) script(s int) (sc ccp.Script, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: cell %d (%s n=%d %s): %v",
				c.Index, c.Workload, c.N, c.Variant(), r)
		}
	}()
	sc = workload.Generate(c.Workload, workload.Options{
		N: c.N, Ops: c.Ops, Seed: int64(1000*s + c.N), PCheckpoint: c.PCheckpoint,
	})
	return sc, nil
}

func (c Cell) runCollectors(res *Result) error {
	var mean, ratio float64
	var max, peak, forced int
	for s := 0; s < c.Seeds; s++ {
		script, err := c.script(s)
		if err != nil {
			return err
		}
		rep, err := metrics.Measure(metrics.MeasureOptions{
			N: c.N, Collector: c.Collector, Script: script, GlobalEvery: c.GlobalEvery,
		})
		if err != nil {
			return err
		}
		mean += rep.PerProcRetained.Mean()
		ratio += rep.CollectionRatio()
		if rep.PerProcRetained.Max() > max {
			max = rep.PerProcRetained.Max()
		}
		if rep.GlobalRetained.Max() > peak {
			peak = rep.GlobalRetained.Max()
		}
		forced += rep.Forced
	}
	k := float64(c.Seeds)
	res.RetainedMean = mean / k
	res.RetainedMax = max
	res.GlobalPeak = peak
	res.CollectRatio = ratio / k
	res.Forced = forced / c.Seeds
	return nil
}

func (c Cell) runProtocols(res *Result) error {
	var basic, forced int
	var mean float64
	for s := 0; s < c.Seeds; s++ {
		script, err := c.script(s)
		if err != nil {
			return err
		}
		mk := c.Protocol.New
		rep, err := metrics.Measure(metrics.MeasureOptions{
			N: c.N, Collector: metrics.RDTLGC, Script: script,
			Protocol: func(int) protocol.Protocol { return mk() },
		})
		if err != nil {
			return err
		}
		basic += rep.Basic
		forced += rep.Forced
		mean += rep.PerProcRetained.Mean()
	}
	res.Basic = basic / c.Seeds
	res.Forced = forced / c.Seeds
	if basic > 0 {
		res.ForcedPerBasic = float64(forced) / float64(basic)
	}
	res.RetainedMean = mean / float64(c.Seeds)
	return nil
}

func (c Cell) runRollback(res *Result) error {
	var mean float64
	var max, lost, domino, crashes int
	for s := 0; s < c.Seeds; s++ {
		script, err := c.script(s)
		if err != nil {
			return err
		}
		mk := c.Protocol.New
		rep, err := metrics.MeasureRollback(metrics.RollbackOptions{
			N: c.N, Script: script,
			Protocol: func(int) protocol.Protocol { return mk() },
		})
		if err != nil {
			return err
		}
		mean += rep.StableRolled.Mean()
		if rep.StableRolled.Max() > max {
			max = rep.StableRolled.Max()
		}
		lost += rep.VolatileLost
		domino += rep.DominoToStart
		crashes += rep.Crashes
	}
	res.MeanRolled = mean / float64(c.Seeds)
	res.MaxRolled = max
	// A short run can record no crash points at all; leave the rate at 0
	// rather than emitting NaN, which json.Encoder rejects outright.
	if denom := crashes * (c.N - 1); denom > 0 {
		res.VolatileLostPct = 100 * float64(lost) / float64(denom)
	}
	res.DominoToStart = domino
	return nil
}

// runChaos measures one survivability cell: Seeds independent seeded fault
// plans executed by the deterministic chaos engine on the live runtime,
// with every recovery session verified against the ground-truth oracles.
// Wall-clock recovery latency is the one non-deterministic column; it is
// reported only through the JSON output, so the text table stays
// byte-identical across runs and worker counts.
func (c Cell) runChaos(res *Result) error {
	v := c.ChaosVariant
	var depth float64
	var crashes, recoveries, orphans, replayed, partitions, heals int
	var latency, healLatency time.Duration
	for s := 0; s < c.Seeds; s++ {
		plan, err := chaos.NewPlan(chaos.PlanOptions{
			N: c.N, Pattern: c.Pattern, Cycles: c.Cycles, Ops: c.Ops,
			Seed: int64(1000*s + c.N), PBurst: 0.25,
		})
		if err != nil {
			return err
		}
		mk := v.Protocol.New
		cfg := chaos.Config{
			Protocol:      func(int) protocol.Protocol { return mk() },
			Net:           rt.NetworkOptions{Loss: 0.02, Seed: int64(7000*s + c.N)},
			GlobalLI:      true,
			Deterministic: true,
			PCheckpoint:   c.PCheckpoint,
			RDT:           v.Protocol.RDT,
		}
		switch v.Collector {
		case metrics.RDTLGC:
			cfg.LocalGC = func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) }
			cfg.CheckNBound = v.Protocol.RDT
		case metrics.NoGC:
		default:
			return fmt.Errorf("sweep: chaos table supports RDT-LGC and no-gc stacks, not %v", v.Collector)
		}
		r, err := chaos.Run(cfg, plan)
		if err != nil {
			return fmt.Errorf("sweep: cell %d (%s n=%d %s): %w", c.Index, c.Pattern, c.N, v.Name(), err)
		}
		crashes += r.Crashes
		recoveries += r.Recoveries
		orphans += r.Orphans
		replayed += r.Replayed
		depth += r.RollbackDepth.Mean()
		if r.RollbackDepth.Max() > res.MaxRolled {
			res.MaxRolled = r.RollbackDepth.Max()
		}
		if r.RetainedAfterMax > res.RetainedAfterMax {
			res.RetainedAfterMax = r.RetainedAfterMax
		}
		latency += r.Latency
		partitions += r.Partitions
		heals += r.Heals
		healLatency += r.HealLatency
	}
	res.Crashes = crashes / c.Seeds
	res.Recoveries = recoveries / c.Seeds
	res.Orphans = orphans / c.Seeds
	res.Replayed = replayed / c.Seeds
	res.MeanRolled = depth / float64(c.Seeds)
	if recoveries > 0 {
		res.RecoverySecs = (latency / time.Duration(recoveries)).Seconds()
	}
	res.Partitions = partitions / c.Seeds
	res.Heals = heals / c.Seeds
	if heals > 0 {
		res.HealSecs = (healLatency / time.Duration(heals)).Seconds()
	}
	return nil
}

// Run expands the grid and executes every cell on at most g.Workers
// goroutines (<= 0 means runtime.NumCPU()). Results come back in grid
// order whatever the worker count, so a parallel run renders byte-for-byte
// the same table as -workers=1.
func (g Grid) Run() ([]Result, error) {
	if g.Seeds < 1 {
		return nil, fmt.Errorf("sweep: grid needs Seeds >= 1, got %d", g.Seeds)
	}
	if g.Workers <= 0 {
		g.Workers = runtime.NumCPU()
	}
	return Map(g.Workers, g.Cells(), Cell.Run)
}
