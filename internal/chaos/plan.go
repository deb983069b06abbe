// Package chaos is the fault-injection engine over the live runtime: it
// executes seeded plans of crash/restart cycles, message-loss and delay
// bursts against a runtime.Cluster and, after every recovery session,
// verifies the survivors and restarted processes against the ground-truth
// oracles — the restored cut equals the Lemma 1 recovery line of the
// pre-failure pattern, the post-recovery pattern stays RD-trackable, only
// oracle-obsolete checkpoints were collected (Theorem 4), and retention
// respects the RDT-LGC space bound (Section 4.5).
//
// The paper's entire purpose is surviving crashes from stable storage;
// this package is where the repo actually crashes things. A Plan is a pure
// function of its options (same seed, same steps), and an engine run in
// Deterministic mode is a pure function of (plan, config), so survivability
// tables rendered through the sweep pool are byte-identical at any worker
// count.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
)

// Pattern selects the fault shape a plan injects.
type Pattern int

const (
	// Single crashes one random process per cycle.
	Single Pattern = iota + 1
	// Correlated crashes a random set of processes at once (a rack or
	// switch failure taking several processes down together).
	Correlated
	// Rolling crashes every process in turn, one per cycle, like a rolling
	// restart sweeping the cluster.
	Rolling
	// Repeated crashes the same process again immediately after its
	// recovery session completes, several times back to back with no
	// intervening traffic — the process keeps failing during the window in
	// which the cluster is still digesting its previous recovery.
	Repeated
	// SplitBrain partitions the mesh into two seeded halves mid-traffic,
	// drives both sides against the wall, heals, drains the parked
	// backlog, and then runs a crash/restart cycle so the full oracle
	// battery covers the healed pattern. TCP clusters only.
	SplitBrain
	// Flapping breaks and heals one seeded directed link repeatedly under
	// traffic — the cut's drain and the heal's flush exercised while the
	// sender pool is hot.
	// TCP clusters only.
	Flapping
	// Isolation cuts one process off from everyone (both directions) per
	// cycle, rolling through the cluster like Rolling does with crashes.
	// TCP clusters only.
	Isolation
	// PartitionRecovery opens a split, crashes a process, and runs the
	// recovery session while the partition is still open — the session's
	// drain must not hang on parked frames — before healing. TCP only.
	PartitionRecovery
)

// String returns the pattern name used on the cmd/chaos command line.
func (p Pattern) String() string {
	switch p {
	case Single:
		return "single"
	case Correlated:
		return "correlated"
	case Rolling:
		return "rolling"
	case Repeated:
		return "repeated"
	case SplitBrain:
		return "split"
	case Flapping:
		return "flap"
	case Isolation:
		return "isolate"
	case PartitionRecovery:
		return "partition-recovery"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Patterns lists the crash-fault patterns, in table order.
func Patterns() []Pattern { return []Pattern{Single, Correlated, Rolling, Repeated} }

// PartitionPatterns lists the network-partition patterns (TCP clusters
// only), in table order.
func PartitionPatterns() []Pattern {
	return []Pattern{SplitBrain, Flapping, Isolation, PartitionRecovery}
}

// UsesPartitions reports whether the pattern schedules partition or
// link-flap steps, which require a TCP cluster.
func (p Pattern) UsesPartitions() bool {
	switch p {
	case SplitBrain, Flapping, Isolation, PartitionRecovery:
		return true
	}
	return false
}

// ParsePattern maps a -patterns / -partition flag element to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	for _, p := range Patterns() {
		if p.String() == s {
			return p, nil
		}
	}
	for _, p := range PartitionPatterns() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown fault pattern %q", s)
}

// StepKind discriminates plan steps.
type StepKind int

const (
	// StepDrive runs application traffic: seeded sends and basic
	// checkpoints across the processes that are up.
	StepDrive StepKind = iota + 1
	// StepBurst degrades the network for the next drive step only: message
	// loss at the step's rate, and no delivery delay. The engine restores the
	// configured baseline after it.
	StepBurst
	// StepCrash fails the listed processes in place.
	StepCrash
	// StepRestart rehydrates every crashed process from stable storage and
	// runs the recovery session, then verifies it against the oracles.
	StepRestart
	// StepPartition cuts every cross-group mesh pair atomically; frames
	// into the cut park until the heal. TCP clusters only.
	StepPartition
	// StepHeal lifts every open partition and break, drains the parked
	// backlog, and verifies the healed cluster state against the replayed
	// history.
	StepHeal
	// StepBreakLink cuts one directed pair (Procs[0] -> Procs[1]).
	StepBreakLink
	// StepHealLink heals one directed pair (Procs[0] -> Procs[1]).
	StepHealLink
)

// Step is one instruction of a plan.
type Step struct {
	Kind StepKind
	// Procs lists the crash victims (StepCrash) or the directed pair
	// (StepBreakLink / StepHealLink: Procs[0] -> Procs[1]).
	Procs []int
	// Ops is the number of application operations (StepDrive).
	Ops int
	// Loss is the burst's message-loss probability (StepBurst).
	Loss float64
	// Groups lists the partition's sides (StepPartition); processes in no
	// group form one implicit extra side.
	Groups [][]int
}

// PlanOptions parameterizes NewPlan.
type PlanOptions struct {
	N       int     // processes
	Pattern Pattern // fault shape
	Cycles  int     // crash/restart cycles
	Ops     int     // application operations per drive phase
	Seed    int64   // makes the plan reproducible

	// PBurst is the probability a cycle opens with a network burst
	// (default 0: no bursts).
	PBurst float64
}

// The plan's fixed shape. While the victims are down, survivors generate
// Ops/downtimeDiv operations of traffic — messages into the hole are lost,
// messages the victims sent before failing keep arriving and orphan their
// receivers. A burst loses burstLoss of the messages. Per cycle, the
// Repeated pattern runs repeatedCrashes back-to-back crash/restart rounds
// and the Flapping pattern runs flaps break/heal rounds. Partition plans always end each
// cycle with a crash/restart tail so the full oracle battery covers the
// healed pattern; build Steps directly for a crash-free plan, as the
// differential delivery-equivalence test does.
const (
	downtimeDiv     = 4
	burstLoss       = 0.3
	repeatedCrashes = 3
	flaps           = 4
)

// Plan is a seeded fault schedule. Plans are pure data: the same options
// always produce the same steps, and a plan can be executed against any
// compatible engine configuration.
type Plan struct {
	N       int
	Pattern Pattern
	Seed    int64
	Steps   []Step
}

// Recoveries returns the number of recovery sessions the plan schedules.
func (p Plan) Recoveries() int {
	k := 0
	for _, s := range p.Steps {
		if s.Kind == StepRestart {
			k++
		}
	}
	return k
}

// Crashes returns the number of process crashes the plan schedules.
func (p Plan) Crashes() int {
	k := 0
	for _, s := range p.Steps {
		if s.Kind == StepCrash {
			k += len(s.Procs)
		}
	}
	return k
}

// NewPlan expands the options into a seeded fault schedule.
func NewPlan(o PlanOptions) (Plan, error) {
	if o.N < 2 {
		return Plan{}, fmt.Errorf("chaos: need at least two processes, got %d", o.N)
	}
	if o.Cycles < 1 {
		return Plan{}, fmt.Errorf("chaos: need at least one cycle, got %d", o.Cycles)
	}
	if o.Ops < 1 {
		return Plan{}, fmt.Errorf("chaos: need at least one operation per drive phase, got %d", o.Ops)
	}
	switch o.Pattern {
	case Single, Correlated, Rolling, Repeated, SplitBrain, Flapping, Isolation, PartitionRecovery:
	default:
		return Plan{}, fmt.Errorf("chaos: unknown fault pattern %d", int(o.Pattern))
	}
	downtime := o.Ops / downtimeDiv

	rng := rand.New(rand.NewSource(o.Seed))
	plan := Plan{N: o.N, Pattern: o.Pattern, Seed: o.Seed}
	for cycle := 0; cycle < o.Cycles; cycle++ {
		if o.Pattern.UsesPartitions() {
			partitionCycle(&plan, rng, o, cycle)
			continue
		}
		if o.PBurst > 0 && rng.Float64() < o.PBurst {
			plan.Steps = append(plan.Steps, Step{Kind: StepBurst, Loss: burstLoss})
		}
		plan.Steps = append(plan.Steps, Step{Kind: StepDrive, Ops: o.Ops})

		victims := victims(rng, o, cycle)
		plan.Steps = append(plan.Steps, Step{Kind: StepCrash, Procs: victims})
		if downtime > 0 {
			plan.Steps = append(plan.Steps, Step{Kind: StepDrive, Ops: downtime})
		}
		plan.Steps = append(plan.Steps, Step{Kind: StepRestart})

		if o.Pattern == Repeated {
			for r := 1; r < repeatedCrashes; r++ {
				plan.Steps = append(plan.Steps,
					Step{Kind: StepCrash, Procs: victims},
					Step{Kind: StepRestart})
			}
		}
	}
	return plan, nil
}

// partitionCycle appends one cycle of a partition pattern. Every draw comes
// from the plan RNG here, at expansion time — the engine's drive RNG never
// advances on partition steps, so a plan with its partition steps deleted
// drives the byte-identical op stream (the differential oracle's lever).
func partitionCycle(plan *Plan, rng *rand.Rand, o PlanOptions, cycle int) {
	ops := max(1, o.Ops/downtimeDiv)
	add := func(steps ...Step) { plan.Steps = append(plan.Steps, steps...) }
	add(Step{Kind: StepDrive, Ops: o.Ops})
	switch o.Pattern {
	case SplitBrain:
		add(Step{Kind: StepPartition, Groups: halves(rng, o.N)})
		add(Step{Kind: StepDrive, Ops: ops})
		add(Step{Kind: StepHeal})
		add(Step{Kind: StepDrive, Ops: ops})
	case Flapping:
		from := rng.Intn(o.N)
		to := rng.Intn(o.N - 1)
		if to >= from {
			to++
		}
		for f := 0; f < flaps; f++ {
			add(Step{Kind: StepBreakLink, Procs: []int{from, to}})
			add(Step{Kind: StepDrive, Ops: ops})
			add(Step{Kind: StepHealLink, Procs: []int{from, to}})
			add(Step{Kind: StepDrive, Ops: ops})
		}
		add(Step{Kind: StepHeal}) // settle: verify the healed state once per cycle
	case Isolation:
		add(Step{Kind: StepPartition, Groups: [][]int{{cycle % o.N}}})
		add(Step{Kind: StepDrive, Ops: ops})
		add(Step{Kind: StepHeal})
		add(Step{Kind: StepDrive, Ops: ops})
	case PartitionRecovery:
		// The crash and the recovery session both happen while the split is
		// open; the session's drain crosses parked frames and must return.
		add(Step{Kind: StepPartition, Groups: halves(rng, o.N)})
		add(Step{Kind: StepDrive, Ops: ops})
		add(Step{Kind: StepCrash, Procs: []int{rng.Intn(o.N)}})
		add(Step{Kind: StepDrive, Ops: ops})
		add(Step{Kind: StepRestart})
		add(Step{Kind: StepHeal})
		add(Step{Kind: StepDrive, Ops: ops})
		return
	}
	// Close the cycle with a crash/restart so the healed pattern passes the
	// full oracle battery, not just the heal checks.
	add(Step{Kind: StepCrash, Procs: []int{rng.Intn(o.N)}})
	add(Step{Kind: StepDrive, Ops: ops})
	add(Step{Kind: StepRestart})
}

// halves splits the processes into two seeded halves.
func halves(rng *rand.Rand, n int) [][]int {
	perm := rng.Perm(n)
	a := append([]int(nil), perm[:n/2]...)
	b := append([]int(nil), perm[n/2:]...)
	sort.Ints(a)
	sort.Ints(b)
	return [][]int{a, b}
}

// victims draws the cycle's crash set.
func victims(rng *rand.Rand, o PlanOptions, cycle int) []int {
	switch o.Pattern {
	case Rolling:
		return []int{cycle % o.N}
	case Correlated:
		// Two to roughly half the cluster, always leaving a survivor.
		max := o.N / 2
		if max < 2 {
			max = 2
		}
		if max > o.N-1 {
			max = o.N - 1
		}
		size := 2
		if max > 2 {
			size += rng.Intn(max - 1)
		}
		if size > o.N-1 {
			size = o.N - 1
		}
		set := append([]int(nil), rng.Perm(o.N)[:size]...)
		sort.Ints(set)
		return set
	default: // Single, Repeated
		return []int{rng.Intn(o.N)}
	}
}
