package rdt

import (
	"repro/internal/chaos"
	"repro/internal/runtime"
)

// ChaosPattern selects the fault shape a chaos plan injects.
type ChaosPattern = chaos.Pattern

// Fault patterns. Single crashes one process per cycle; Correlated crashes
// a random set at once; Rolling sweeps the cluster one process per cycle;
// Repeated crashes the same process again immediately after each recovery.
// The partition patterns cut links on whichever wire the run uses (the
// in-process one unless Network.TCP is set): SplitBrain severs two seeded
// halves mid-traffic and heals; Flapping breaks and heals one seeded link repeatedly under load;
// Isolation cuts one process off per cycle, rolling through the cluster;
// PartitionRecovery runs the recovery session while the split is open.
const (
	ChaosSingle            = chaos.Single
	ChaosCorrelated        = chaos.Correlated
	ChaosRolling           = chaos.Rolling
	ChaosRepeated          = chaos.Repeated
	ChaosSplitBrain        = chaos.SplitBrain
	ChaosFlapping          = chaos.Flapping
	ChaosIsolation         = chaos.Isolation
	ChaosPartitionRecovery = chaos.PartitionRecovery
)

// ChaosPlanOptions parameterizes NewChaosPlan.
type ChaosPlanOptions = chaos.PlanOptions

// ChaosPlan is a seeded fault schedule: crash/restart cycles, survivor
// traffic windows and network bursts. Same options, same plan.
type ChaosPlan = chaos.Plan

// ChaosResult aggregates a chaos run's survivability measurements.
type ChaosResult = chaos.Result

// NewChaosPlan expands the options into a seeded fault schedule.
func NewChaosPlan(o ChaosPlanOptions) (ChaosPlan, error) { return chaos.NewPlan(o) }

// RunChaos executes the fault plan against a fresh live cluster assembled
// from the options (protocol, collector, optional file-backed storage) and
// verifies every recovery session against the ground-truth oracles: the
// restored cut equals the Lemma 1 recovery line, the post-recovery pattern
// stays RD-trackable, only obsolete checkpoints were collected, and
// retention respects the RDT-LGC bound. The engine runs deterministically:
// the same plan and options yield the same measurements. Partition steps
// cut and heal links on whichever wire Network.TCP selects — the link layer
// that holds the cut is the same under both — and every heal is followed by
// a full drain — the parked backlog delivered — and the oracle battery.
func RunChaos(plan ChaosPlan, net Network, opt ...Option) (ChaosResult, error) {
	o := defaults()
	for _, f := range opt {
		f(&o)
	}
	s, err := o.stack()
	if err != nil {
		return ChaosResult{}, err
	}
	cfg, err := chaos.Stack(s)
	if err != nil {
		return ChaosResult{}, err
	}
	cfg.Net = runtime.NetworkOptions{
		MinDelay: net.MinDelay,
		MaxDelay: net.MaxDelay,
		Loss:     net.Loss,
		Seed:     net.Seed,
	}
	cfg.GlobalLI, cfg.Deterministic, cfg.PCheckpoint = true, true, 0.2
	cfg.Compress, cfg.TCP = o.compress, net.TCP
	if cfg.NewStore, err = o.stores(); err != nil {
		return ChaosResult{}, err
	}
	return chaos.Run(cfg, plan)
}
