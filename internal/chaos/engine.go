package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// Config assembles the cluster a plan runs against and selects which oracle
// checks apply to it.
type Config struct {
	// Protocol is the per-process checkpointing protocol (default FDAS).
	Protocol func(self int) protocol.Protocol
	// LocalGC is the per-process collector (default: keep everything).
	LocalGC func(self, n int, store storage.Store) gc.Local
	// NewStore is the per-process stable store (default: in-memory).
	// File-backed stores make the crash/rehydration path cross a real disk.
	NewStore func(self int) (storage.Store, error)
	// Net shapes the baseline network; bursts override it temporarily.
	Net runtime.NetworkOptions
	// GlobalLI selects the Theorem 1 (global-information) rollback variant
	// for the recovery sessions.
	GlobalLI bool
	// PCheckpoint is the probability a drive operation is a basic
	// checkpoint (default 0.2).
	PCheckpoint float64

	// Deterministic serializes the drive phases (one operation at a time,
	// network drained between operations) and zeroes delivery delays, so a
	// run is a pure function of (plan, config). With it off, drive phases
	// run one application goroutine per process and deliveries race —
	// verification still holds, measurements vary.
	Deterministic bool

	// Compress enables incremental dependency-vector piggybacking on the
	// cluster under test. The technique requires reliable channels, so the
	// baseline network must be lossless (Run refuses otherwise) and the
	// loss component of burst steps is ignored; delay bursts still apply.
	Compress bool

	// RDT asserts the protocol guarantees rollback-dependency
	// trackability: every post-recovery pattern is checked for RDT
	// violations.
	RDT bool
	// CheckNBound asserts the RDT-LGC space bound: no process may retain
	// more than n stable checkpoints after a recovery. Set it when LocalGC
	// is RDT-LGC under an RDT protocol.
	CheckNBound bool

	// TCP runs the cluster under test over the real batched TCP mesh
	// instead of the in-process wire, so a chaos run exercises the socket
	// path (framing, reconnects, link reconciliation) too. Partition plans
	// run on either: the link layer that cuts and heals is above the wire.
	TCP bool
	// Obs attaches live telemetry to the cluster under test and to the
	// chaos engine itself: crash and recovery counters, crash→recovered
	// latency, oracle verdicts, post-recovery retention. The zero value is
	// the default and costs nothing.
	Obs obs.Options
}

// Stack returns a Config that runs the named protocol under the named local
// collector, with the oracle checks that stack promises: RD-trackability
// under an RDT protocol, and the n-bound when RDT-LGC runs under one.
func Stack(protocolName, collectorName string) (Config, error) {
	pf := protocol.Factory(protocolName)
	if pf == nil {
		return Config{}, fmt.Errorf("chaos: unknown protocol %q", protocolName)
	}
	col, err := core.LookupCollector(collectorName, true)
	if err != nil {
		return Config{}, fmt.Errorf("chaos: %w", err)
	}
	rdt := protocol.RDT(pf(0))
	return Config{Protocol: pf, LocalGC: col.Local, RDT: rdt, CheckNBound: rdt && col.Name == core.RDTLGC}, nil
}

// Result aggregates a run's survivability measurements. All counters are
// exact for Deterministic runs and sampled-from-races otherwise.
type Result struct {
	Crashes    int // processes crashed
	Recoveries int // recovery sessions run (and verified)

	// RollbackDepth sums, over every rolled-back process of every recovery
	// (Replayed of them), the stable checkpoints the process was dragged
	// back; MaxRollbackDepth is the deepest single rollback.
	RollbackDepth    int
	MaxRollbackDepth int
	// Orphans counts non-faulty processes that lost volatile state in a
	// recovery (rolled back at all).
	Orphans int
	// Replayed counts checkpoint states reloaded from stable storage
	// across all recoveries (every rolled-back process resumes from one).
	Replayed int
	// RetainedAfterMax is the largest per-process stable-checkpoint count
	// observed right after a recovery session.
	RetainedAfterMax int
	// Latency is the total wall clock spent inside Restart calls —
	// rehydration from stable storage plus the recovery session.
	Latency time.Duration

	// Partitions counts partition faults injected: one per StepPartition,
	// one per StepBreakLink flap.
	Partitions int
	// Heals counts StepHeal executions — each heals the whole mesh, drains
	// the retransmit backlog, and verifies the cluster against the
	// replayed history.
	Heals int
	// HealLatency is the total wall clock from each HealAll call to the
	// drained cluster — reconnect, retransmit, and delivery of every
	// parked frame.
	HealLatency time.Duration
}

// MeanLatency is the mean wall clock per recovery session.
func (r Result) MeanLatency() time.Duration {
	if r.Recoveries == 0 {
		return 0
	}
	return r.Latency / time.Duration(r.Recoveries)
}

// MeanHealLatency is the mean wall clock per heal step (0 with no heals).
func (r Result) MeanHealLatency() time.Duration {
	if r.Heals == 0 {
		return 0
	}
	return r.HealLatency / time.Duration(r.Heals)
}

// Run executes the plan against a fresh cluster and verifies every
// recovery session against the ground-truth oracles. The first oracle
// violation aborts the run with an error describing it.
func Run(cfg Config, plan Plan) (Result, error) {
	if cfg.PCheckpoint == 0 {
		cfg.PCheckpoint = 0.2
	}
	base := cfg.Net
	if cfg.Deterministic {
		base.MinDelay, base.MaxDelay = 0, 0
	}
	if cfg.Compress && base.Loss > 0 {
		return Result{}, fmt.Errorf("chaos: compressed piggybacking requires a lossless baseline network (loss %g)", base.Loss)
	}
	c, err := runtime.NewCluster(runtime.Config{
		N:        plan.N,
		Protocol: cfg.Protocol,
		LocalGC:  cfg.LocalGC,
		NewStore: cfg.NewStore,
		Net:      base,
		TCP:      cfg.TCP,
		Compress: cfg.Compress,
		Obs:      cfg.Obs,
	})
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	om := obs.ChaosMetricsFrom(cfg.Obs.Registry)

	// The drive RNG is independent of the cluster's network RNG and of the
	// plan's generation RNG, so traffic decisions, loss draws and fault
	// schedules stay decoupled but all derive from the plan seed.
	rng := rand.New(rand.NewSource(plan.Seed ^ 0x5deece66d))

	var res Result
	burst := false
	for stepIdx, step := range plan.Steps {
		switch step.Kind {
		case StepBurst:
			maxDelay := step.MaxDelay
			if cfg.Deterministic {
				maxDelay = 0
			}
			loss := step.Loss
			if cfg.Compress {
				// Incremental piggybacks cannot survive silent loss; the
				// burst keeps its delay component only.
				loss = 0
			}
			if err := c.SetNetwork(0, maxDelay, loss); err != nil {
				return res, fmt.Errorf("chaos: step %d: %w", stepIdx, err)
			}
			burst = true
		case StepDrive:
			if err := drive(c, rng, step.Ops, cfg); err != nil {
				return res, fmt.Errorf("chaos: step %d: %w", stepIdx, err)
			}
			if burst {
				if err := c.SetNetwork(base.MinDelay, base.MaxDelay, base.Loss); err != nil {
					return res, fmt.Errorf("chaos: step %d: %w", stepIdx, err)
				}
				burst = false
			}
		case StepCrash:
			for _, p := range step.Procs {
				if err := c.Crash(p); err != nil {
					return res, fmt.Errorf("chaos: step %d: %w", stepIdx, err)
				}
			}
			res.Crashes += len(step.Procs)
			om.Crashes.Add(uint64(len(step.Procs)))
		case StepRestart:
			if err := restartAndVerify(c, cfg, om, &res); err != nil {
				return res, fmt.Errorf("chaos: step %d: %w", stepIdx, err)
			}
		case StepPartition:
			if err := c.Partition(step.Groups); err != nil {
				return res, fmt.Errorf("chaos: step %d: %w", stepIdx, err)
			}
			res.Partitions++
		case StepHeal:
			t0 := time.Now()
			if cfg.Deterministic {
				// Heal one directed pair at a time, draining between pairs.
				// Parked backlogs are per-pair FIFO, but a whole-mesh heal
				// flushes them concurrently and the cross-pair interleaving
				// at each receiver is OS-scheduled — and forced-checkpoint
				// decisions depend on arrival order. Sequential heals give
				// the drain a canonical order, keeping the table a pure
				// function of the plan for any worker count.
				for from := 0; from < plan.N; from++ {
					for to := 0; to < plan.N; to++ {
						if from != to {
							c.HealLink(from, to)
							c.Quiesce()
						}
					}
				}
			}
			c.HealAll()
			// The drain after a heal is the whole point: reconnect, flush the
			// retransmit backlog, deliver every parked frame — only then is
			// the healed state checkable against the replayed history.
			c.Quiesce()
			res.HealLatency += time.Since(t0)
			res.Heals++
			if err := verifyHeal(c, cfg); err != nil {
				om.OracleViolations.Inc()
				return res, fmt.Errorf("chaos: step %d: %w", stepIdx, err)
			}
			om.OracleOK.Inc()
		case StepBreakLink:
			c.BreakLink(step.Procs[0], step.Procs[1])
			res.Partitions++
		case StepHealLink:
			c.HealLink(step.Procs[0], step.Procs[1])
			if cfg.Deterministic {
				// Drain the flushed backlog before the next drive op so its
				// frames cannot race a fresh send into a shared receiver.
				c.Quiesce()
			}
		default:
			return res, fmt.Errorf("chaos: step %d: unknown kind %d", stepIdx, int(step.Kind))
		}
	}
	return res, nil
}

// drive generates application traffic. Deterministic mode issues one
// operation at a time and drains the network after each, so the linearized
// history is a pure function of the RNG stream; concurrent mode runs one
// goroutine per live process and deliberately leaves messages in flight
// when it returns, so a following crash races real deliveries.
func drive(c *runtime.Cluster, rng *rand.Rand, ops int, cfg Config) error {
	n := c.N()
	var up []int
	for i := 0; i < n; i++ {
		if !c.Node(i).Down() {
			up = append(up, i)
		}
	}
	if len(up) == 0 {
		return fmt.Errorf("chaos: drive with every process crashed")
	}

	if cfg.Deterministic {
		for k := 0; k < ops; k++ {
			p := up[rng.Intn(len(up))]
			if rng.Float64() < cfg.PCheckpoint {
				if err := c.Node(p).Checkpoint(); err != nil {
					return fmt.Errorf("p%d checkpoint: %w", p, err)
				}
			} else {
				// Any target but self — including crashed processes, whose
				// messages the network loses in delivery.
				to := rng.Intn(n - 1)
				if to >= p {
					to++
				}
				if err := c.Node(p).Send(to); err != nil {
					return fmt.Errorf("p%d send: %w", p, err)
				}
			}
			c.Quiesce()
		}
		return nil
	}

	// Concurrent mode: seeds are drawn serially so the per-process RNG
	// streams are reproducible even though interleavings are not.
	perOps := ops / len(up)
	if perOps == 0 {
		perOps = 1
	}
	seeds := make([]int64, len(up))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	errs := make([]error, len(up))
	var wg sync.WaitGroup
	for k, p := range up {
		wg.Add(1)
		go func(k, p int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(seeds[k]))
			node := c.Node(p)
			for op := 0; op < perOps; op++ {
				var err error
				if prng.Float64() < cfg.PCheckpoint {
					err = node.Checkpoint()
				} else {
					to := prng.Intn(n - 1)
					if to >= p {
						to++
					}
					err = node.Send(to)
				}
				if err != nil {
					// ErrHalted / ErrCrashed mean a fault overtook this
					// worker — expected under injection, not a failure.
					if err == runtime.ErrHalted || err == runtime.ErrCrashed {
						return
					}
					errs[k] = err
					return
				}
			}
		}(k, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// restartAndVerify drains the network, snapshots the pre-failure oracle,
// restarts the crashed set, and checks the session against ground truth.
func restartAndVerify(c *runtime.Cluster, cfg Config, om obs.ChaosMetrics, res *Result) error {
	victims := c.Down()
	if len(victims) == 0 {
		return fmt.Errorf("chaos: restart step with no crashed process")
	}
	// Drain so the pre-failure history is final: anything still in flight
	// would be dropped by the session's epoch advance anyway, but draining
	// first makes the captured oracle exactly the pattern the session sees.
	c.Quiesce()
	pre := c.Oracle()

	t0 := time.Now()
	rep, err := c.Restart(cfg.GlobalLI)
	elapsed := time.Since(t0)
	res.Latency += elapsed
	if err != nil {
		return err
	}
	res.Recoveries++
	om.Recoveries.Inc()
	om.RecoveryNs.Observe(elapsed.Nanoseconds())
	if err := verifyRecovery(c, cfg, pre, victims, rep, res); err != nil {
		om.OracleViolations.Inc()
		return err
	}
	om.OracleOK.Inc()
	om.ObsoleteRetained.Set(int64(res.RetainedAfterMax))
	return nil
}

// verifyRecovery asserts one recovery session against the oracles:
//
//  1. the restored cut equals the Lemma 1 recovery line R_F of the
//     pre-failure pattern — no process rolled back further than the
//     paper's bound, and the cut is consistent;
//  2. the post-recovery pattern is still RD-trackable (RDT protocols);
//  3. every collected checkpoint is obsolete in the post-recovery pattern
//     (Theorem 4 safety) and reference counts are intact;
//  4. retention respects the Section 4.5 n-bound (RDT-LGC);
//  5. the live middleware state agrees with the replayed history.
func verifyRecovery(c *runtime.Cluster, cfg Config, pre *ccp.CCP, victims []int, rep runtime.Report, res *Result) error {
	n := c.N()
	want := pre.RecoveryLine(victims)
	for i := range want {
		if rep.Line[i] != want[i] {
			return fmt.Errorf("chaos: recovery line %v diverges from the Lemma 1 oracle %v (faulty %v)",
				rep.Line, want, victims)
		}
	}
	if !pre.IsConsistentGlobal(rep.Line) {
		return fmt.Errorf("chaos: restored cut %v is not a consistent global checkpoint", rep.Line)
	}

	isVictim := make([]bool, n)
	for _, p := range victims {
		isVictim[p] = true
	}
	for _, p := range rep.RolledBack {
		depth := pre.LastStable(p) - rep.Line[p]
		if depth < 0 {
			return fmt.Errorf("chaos: p%d rolled forward? lastS %d, line %d", p, pre.LastStable(p), rep.Line[p])
		}
		res.RollbackDepth += depth
		res.MaxRollbackDepth = max(res.MaxRollbackDepth, depth)
		if !isVictim[p] {
			res.Orphans++
		}
	}
	res.Replayed += len(rep.RolledBack)

	return verifyClusterState(c, cfg, res, true)
}

// verifyClusterState checks the live middleware against the ground truth
// replayed from the recorded history: per-process last-stable agreement,
// RD-trackability of the current pattern (RDT protocols), Theorem 4 safety
// (only oracle-obsolete checkpoints were collected) with intact reference
// counts, and — afterRecovery only, it is a recovery-session post-condition
// — the Section 4.5 retention n-bound. Shared by the post-recovery
// verification and the post-heal check, so a healed partition faces the
// same oracle battery a recovery does.
func verifyClusterState(c *runtime.Cluster, cfg Config, res *Result, afterRecovery bool) error {
	n := c.N()
	post := c.Oracle()
	if cfg.RDT {
		if v, bad := post.FirstRDTViolation(); bad {
			return fmt.Errorf("chaos: pattern not RDT: %v", v)
		}
	}
	for i := 0; i < n; i++ {
		node := c.Node(i)
		if node.LastStable() != post.LastStable(i) {
			return fmt.Errorf("chaos: p%d last stable %d disagrees with replayed history %d",
				i, node.LastStable(), post.LastStable(i))
		}
		indices := node.Store().Indices()
		if afterRecovery {
			if len(indices) > res.RetainedAfterMax {
				res.RetainedAfterMax = len(indices)
			}
			if cfg.CheckNBound && len(indices) > n {
				return fmt.Errorf("chaos: p%d retains %d > n stable checkpoints after recovery", i, len(indices))
			}
		}
		stored := make(map[int]bool, len(indices))
		for _, idx := range indices {
			stored[idx] = true
		}
		for g := 0; g <= post.LastStable(i); g++ {
			if !stored[g] && !post.Obsolete(i, g) {
				return fmt.Errorf("chaos: p%d collected non-obsolete s^%d", i, g)
			}
		}
		if lgc, ok := node.Collector().(*core.LGC); ok {
			if err := lgc.CheckRefCounts(); err != nil {
				return fmt.Errorf("chaos: %w", err)
			}
		}
	}
	return nil
}

// verifyHeal asserts a drained post-heal cluster: no pair still severed,
// and the live state passes the shared oracle battery — in particular the
// compressed-piggyback delivery-order verification already ran inside
// every kernel during the drain, so a duplicated or reordered retransmit
// would have surfaced before this check.
func verifyHeal(c *runtime.Cluster, cfg Config) error {
	if open := c.PartitionedPairs(); open != 0 {
		return fmt.Errorf("chaos: %d directed pairs still severed after heal", open)
	}
	return verifyClusterState(c, cfg, &Result{}, false)
}
