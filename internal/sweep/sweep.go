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
	"repro/internal/protocol"
	rt "repro/internal/runtime"
	"repro/internal/sim"
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

// OverheadProtocols is the protocol axis of the Protocols table, ordered
// from strongest causal tracking to none.
func OverheadProtocols() []string {
	return []string{"CBR", "Russell", "FDI", "FDAS", "BCS", "none"}
}

// RollbackProtocols is the protocol axis of the Rollback table, RDT
// protocols first.
func RollbackProtocols() []string { return protocol.Names() }

// ChaosVariant is one middleware stack of the Chaos table: a checkpointing
// protocol paired with the collector running under it on the live runtime.
type ChaosVariant struct {
	Protocol, Collector string
}

// Name returns the stack name, the third key column of the chaos table.
func (v ChaosVariant) Name() string { return v.Protocol + "+" + v.Collector }

// ChaosVariants is the default stack axis of the Chaos table: the paper's
// Algorithm 4 merge (FDAS) and the strictest RDT protocol (CBR), each with
// and without the RDT-LGC collector.
func ChaosVariants() []ChaosVariant {
	return []ChaosVariant{
		{"FDAS", core.RDTLGC},
		{"FDAS", core.NoGC},
		{"CBR", core.RDTLGC},
		{"CBR", core.NoGC},
	}
}

// Grid is one experiment: the cross product of its axes, each cell averaged
// over Seeds independent runs.
type Grid struct {
	Table     Table
	Workloads []workload.Kind
	Sizes     []int // process counts
	// Collectors is the variant axis of the Collectors table.
	Collectors []string
	// Protocols is the variant axis of the Protocols and Rollback tables.
	Protocols []string
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
		g.Collectors = core.CollectorNames()
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
	Collector       string
	Protocol        string
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
		return c.Collector
	case Chaos:
		return c.ChaosVariant.Name()
	case Compression:
		return c.CompressVariant.Name()
	default:
		return c.Protocol
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
	RDT            bool    // the protocol guarantees rollback-dependency trackability
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

// simulate runs the cell's s-th script on the simulator under the named
// protocol and collector. With occ set it samples the stable-checkpoint
// occupancy after every event.
func (c Cell) simulate(s int, proto, collector string, occ *occupancy) (*sim.Runner, error) {
	script, err := c.script(s)
	if err != nil {
		return nil, err
	}
	pf := protocol.Factory(proto)
	if pf == nil {
		return nil, fmt.Errorf("sweep: unknown protocol %q", proto)
	}
	col, err := core.LookupCollector(collector, false)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	var r *sim.Runner
	cfg := sim.Config{N: c.N, Protocol: pf, LocalGC: col.Local, GlobalGC: col.Global, GlobalEvery: c.GlobalEvery}
	if occ != nil {
		cfg.AfterEvent = func() error { occ.sample(r); return nil }
	}
	if r, err = sim.NewRunner(cfg); err != nil {
		return nil, err
	}
	return r, r.Run(script)
}

// occupancy samples, after every event, each process's live stable
// checkpoints and the system-wide total.
type occupancy struct {
	sum, samples       int // over every per-process sample
	procMax, globalMax int
}

func (o *occupancy) sample(r *sim.Runner) {
	total := 0
	for i := 0; i < r.N(); i++ {
		live := r.Store(i).Stats().Live
		o.sum += live
		o.samples++
		o.procMax = max(o.procMax, live)
		total += live
	}
	o.globalMax = max(o.globalMax, total)
}

// mean is the per-process occupancy averaged over the run (0 unsampled).
func (o *occupancy) mean() float64 { return ratio(o.sum, o.samples) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// collectRatio is the fraction of the oracle's obsolete checkpoints the
// run's collector had eliminated by its end (1 with none obsolete).
func collectRatio(r *sim.Runner) float64 {
	oracle := r.Oracle()
	obsolete, kept := 0, 0
	for i := 0; i < r.N(); i++ {
		stored := map[int]bool{}
		for _, idx := range r.Store(i).Indices() {
			stored[idx] = true
		}
		for g := 0; g <= oracle.LastStable(i); g++ {
			if oracle.Obsolete(i, g) {
				obsolete++
				if stored[g] {
					kept++
				}
			}
		}
	}
	if obsolete == 0 {
		return 1
	}
	return ratio(obsolete-kept, obsolete)
}

func (c Cell) runCollectors(res *Result) error {
	var mean, collected float64
	var forced int
	for s := 0; s < c.Seeds; s++ {
		var occ occupancy
		r, err := c.simulate(s, "FDAS", c.Collector, &occ)
		if err != nil {
			return err
		}
		mean += occ.mean()
		collected += collectRatio(r)
		res.RetainedMax = max(res.RetainedMax, occ.procMax)
		res.GlobalPeak = max(res.GlobalPeak, occ.globalMax)
		forced += r.Metrics().Forced
	}
	k := float64(c.Seeds)
	res.RetainedMean = mean / k
	res.CollectRatio = collected / k
	res.Forced = forced / c.Seeds
	return nil
}

func (c Cell) runProtocols(res *Result) error {
	var basic, forced int
	var mean float64
	for s := 0; s < c.Seeds; s++ {
		var occ occupancy
		r, err := c.simulate(s, c.Protocol, core.RDTLGC, &occ)
		if err != nil {
			return err
		}
		m := r.Metrics()
		basic += m.Basic
		forced += m.Forced
		mean += occ.mean()
	}
	res.RDT = protocol.RDT(protocol.Factory(c.Protocol)(0))
	res.Basic = basic / c.Seeds
	res.Forced = forced / c.Seeds
	res.ForcedPerBasic = ratio(forced, basic)
	res.RetainedMean = mean / float64(c.Seeds)
	return nil
}

// runRollback executes each seed's script without collection, then, at
// every tenth of the history, computes for every process f the best
// consistent restart after a crash of f (by rollback propagation on the
// ground-truth pattern, which is correct for RDT and non-RDT protocols
// alike) and records how far every other process is dragged back. This is
// the quantity Agbaria, Attiya, Friedman and Vitenberg (SRDS 2001, the
// paper's reference [1]) study analytically.
func (c Cell) runRollback(res *Result) error {
	var mean float64
	var lost, crashes int
	for s := 0; s < c.Seeds; s++ {
		r, err := c.simulate(s, c.Protocol, core.NoGC, nil)
		if err != nil {
			return err
		}
		hist := r.History()
		stride := max(len(hist.Ops)/10, 1)
		rolledSum, samples := 0, 0
		for cut := stride; cut <= len(hist.Ops); cut += stride {
			// A prefix can split a send/receive pair; the receive simply
			// does not exist yet.
			prefix := ccp.Script{N: c.N, Ops: hist.Ops[:cut]}
			if err := prefix.Validate(); err != nil {
				return fmt.Errorf("sweep: invalid history prefix: %w", err)
			}
			pc := prefix.BuildCCP()
			for f := 0; f < c.N; f++ {
				avail := make([]int, c.N)
				for i := range avail {
					avail[i] = pc.VolatileIndex(i)
				}
				avail[f] = pc.LastStable(f) // the crash loses f's volatile state
				line := pc.MaxConsistentBelow(avail)
				crashes++
				for i := 0; i < c.N; i++ {
					if i == f {
						continue
					}
					rolled := 0
					if line[i] <= pc.LastStable(i) {
						rolled = pc.LastStable(i) - line[i]
						lost++
					}
					rolledSum += rolled
					samples++
					res.MaxRolled = max(res.MaxRolled, rolled)
					if line[i] == 0 && pc.LastStable(i) > 0 {
						res.DominoToStart++
					}
				}
			}
		}
		mean += ratio(rolledSum, samples)
	}
	res.MeanRolled = mean / float64(c.Seeds)
	// A short run can record no crash points at all; leave the rate at 0
	// rather than emitting NaN, which json.Encoder rejects outright.
	if denom := crashes * (c.N - 1); denom > 0 {
		res.VolatileLostPct = 100 * float64(lost) / float64(denom)
	}
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
		cfg, err := chaos.Stack(v.Protocol, v.Collector)
		if err != nil {
			return err
		}
		cfg.Net = rt.NetworkOptions{Loss: 0.02, Seed: int64(7000*s + c.N)}
		cfg.GlobalLI, cfg.Deterministic, cfg.PCheckpoint = true, true, c.PCheckpoint
		r, err := chaos.Run(cfg, plan)
		if err != nil {
			return fmt.Errorf("sweep: cell %d (%s n=%d %s): %w", c.Index, c.Pattern, c.N, v.Name(), err)
		}
		crashes += r.Crashes
		recoveries += r.Recoveries
		orphans += r.Orphans
		replayed += r.Replayed
		depth += ratio(r.RollbackDepth, r.Replayed)
		res.MaxRolled = max(res.MaxRolled, r.MaxRollbackDepth)
		res.RetainedAfterMax = max(res.RetainedAfterMax, r.RetainedAfterMax)
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
