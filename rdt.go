// Package rdt is a library for communication-induced checkpointing with
// rollback-dependency trackability (RDT) and optimal asynchronous garbage
// collection of stable checkpoints.
//
// It reproduces Schmidt, Garcia, Pedone and Buzato, "Optimal Asynchronous
// Garbage Collection for RDT Checkpointing Protocols" (ICDCS 2005): the
// RDT-LGC collector, the RDT checkpointing protocols it merges with (FDAS,
// FDI, CBR) and non-RDT baselines (BCS, none), garbage-collection
// comparators (the Theorem 1 synchronous optimum, the all-faulty
// recovery-line scheme, no collection), recovery-line machinery, and both a
// deterministic simulator and a live goroutine-per-process runtime.
//
// # Quick start
//
//	sys, err := rdt.New(4,
//	    rdt.WithProtocol(rdt.FDAS),
//	    rdt.WithCollector(rdt.RDTLGC))
//	if err != nil { ... }
//	script := rdt.Workload(rdt.Uniform, rdt.WorkloadOptions{N: 4, Ops: 1000, Seed: 1})
//	if err := sys.Run(script); err != nil { ... }
//	fmt.Println(sys.RetainedCounts()) // at most 4 per process — Section 4.5
//
// The package is a facade over the implementation packages under internal/;
// see DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package rdt

import (
	"fmt"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
)

// Script is an application-level execution script: a total order of sends,
// receives and basic checkpoints, replayable by the simulator and the
// oracles alike.
type Script = ccp.Script

// CheckpointID names one checkpoint of a pattern.
type CheckpointID = ccp.CheckpointID

// CCP is a checkpoint-and-communication-pattern oracle; see internal/ccp.
type CCP = ccp.CCP

// RecoveryReport describes the outcome of a recovery session.
type RecoveryReport = sim.RecoveryReport

// Protocol selects the communication-induced checkpointing protocol.
type Protocol int

// Protocols. FDAS, FDI, CBR and Russell ensure rollback-dependency
// trackability; BCS ensures only Z-cycle freedom; NoProtocol takes no
// forced checkpoints and exposes applications to the domino effect.
const (
	FDAS Protocol = iota + 1
	FDI
	CBR
	Russell
	BCS
	NoProtocol
)

// String returns the protocol name: the constants number the names of
// internal/protocol's table, in its order.
func (p Protocol) String() string {
	if names := protocol.Names(); p >= FDAS && int(p) <= len(names) {
		return names[p-1]
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// RDT reports whether the protocol guarantees rollback-dependency
// trackability, the property RDT-LGC's guarantees are stated under.
func (p Protocol) RDT() bool {
	s, err := options{protocol: p, collector: RDTLGC}.stack()
	return err == nil && s.RDT
}

// Collector selects the garbage-collection strategy.
type Collector int

// Collectors. RDTLGC is the paper's contribution — asynchronous, local,
// timestamp-only. SyncOptimal evaluates Theorem 1 with global knowledge
// (the most any collector may remove); RecoveryLineGC is the coordinated
// all-faulty-line scheme of the paper's references [5, 8]; NoGC keeps
// everything.
const (
	RDTLGC Collector = iota + 1
	NoGC
	SyncOptimal
	RecoveryLineGC
)

var collectorNames = [...]string{RDTLGC: core.RDTLGC, NoGC: core.NoGC, SyncOptimal: core.SyncOpt, RecoveryLineGC: core.RecoveryLineGC}

// String returns the collector name, as internal/core's table spells it.
func (c Collector) String() string {
	if c >= RDTLGC && int(c) < len(collectorNames) {
		return collectorNames[c]
	}
	return fmt.Sprintf("collector(%d)", int(c))
}

// Backend selects the stable-storage implementation behind every process;
// see the Backend* constants.
type Backend = storage.Backend

// Storage backends. BackendMem keeps checkpoints in memory (the default;
// nothing survives the process). BackendLog is the durable one: it appends
// to a group-commit log with checksummed batches, a flush before every Save
// returns and crash-truncated tails, kept in one generation file that a save
// rewrites into the next, live set first, once deletes have left it mostly
// dead.
const (
	BackendMem = storage.Mem
	BackendLog = storage.Log
)

// ParseBackend parses a backend name as the CLIs spell it: mem or log.
func ParseBackend(s string) (Backend, error) { return storage.ParseBackend(s) }

// Option configures New and NewCluster.
type Option func(*options)

type options struct {
	protocol   Protocol
	collector  Collector
	backend    Backend
	storageDir string
	compress   bool
	obs        obs.Options
}

func defaults() options {
	return options{protocol: FDAS, collector: RDTLGC, backend: BackendMem}
}

// WithProtocol selects the checkpointing protocol (default FDAS, the
// protocol of the paper's Algorithm 4).
func WithProtocol(p Protocol) Option { return func(o *options) { o.protocol = p } }

// WithCollector selects the garbage collector (default RDTLGC).
func WithCollector(c Collector) Option { return func(o *options) { o.collector = c } }

// WithStorage selects the stable-storage backend and its root directory
// (one subdirectory per process). Dir is ignored by BackendMem and required
// by BackendLog.
func WithStorage(b Backend, dir string) Option {
	return func(o *options) { o.backend, o.storageDir = b, dir }
}

// WithCompression piggybacks only the dependency-vector entries changed
// since the previous send to the same destination (the Singhal–Kshemkalyani
// incremental technique). It means the same thing in every engine — a
// capability of the shared middleware kernel (internal/node) — and requires
// reliable per-pair FIFO channels: simulated systems fail on reordered
// scripts, live clusters reject lossy networks at construction (the sender
// pool sequences each pair, and the link layer keeps that order across cuts
// on either wire),
// and chaos runs refuse lossy baselines and drop nothing in their loss
// bursts (a plan's burst carries loss alone, so there it only lifts the
// baseline delay).
func WithCompression() Option { return func(o *options) { o.compress = true } }

// stores resolves the configured backend to the per-process NewStore hook
// the engines share; nil means the engine's in-memory default.
func (o options) stores() (func(self int) (storage.Store, error), error) {
	switch {
	case o.backend == BackendMem || o.backend == "":
		return nil, nil
	case o.backend != BackendLog:
		return nil, fmt.Errorf("rdt: unknown storage backend %q", o.backend)
	case o.storageDir == "":
		return nil, fmt.Errorf("rdt: backend %q requires a storage directory", o.backend)
	}
	return logstore.Factory(o.storageDir), nil
}

// stack resolves the configured protocol and collector (core.NewStack).
func (o options) stack() (core.Stack, error) {
	return core.NewStack(o.protocol.String(), o.collector.String())
}

func (o options) simConfig(n int) (sim.Config, error) {
	s, err := o.stack()
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		N:        n,
		Protocol: s.Protocol,
		LocalGC:  s.Local,
		GlobalGC: s.Global,
		Compress: o.compress,
		Obs:      o.obs,
	}
	if cfg.NewStore, err = o.stores(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// System is a deterministic simulated deployment: n processes with
// checkpointing middleware, driven by scripts.
type System struct {
	n int
	r *sim.Runner
}

// New assembles a simulated system of n processes.
func New(n int, opt ...Option) (*System, error) {
	o := defaults()
	for _, f := range opt {
		f(&o)
	}
	cfg, err := o.simConfig(n)
	if err != nil {
		return nil, err
	}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return &System{n: n, r: r}, nil
}

// Close closes the stable stores the system opened (a no-op for
// BackendMem). The system is unusable afterwards.
func (s *System) Close() error { return s.r.Close() }

// N returns the number of processes.
func (s *System) N() int { return s.n }

// Run executes an application script.
func (s *System) Run(script Script) error { return s.r.Run(script) }

// Recover crashes the faulty processes and runs a centralized recovery
// session; globalLI selects the Theorem 1 (global-information) rollback
// variant of Algorithm 3.
func (s *System) Recover(faulty []int, globalLI bool) (RecoveryReport, error) {
	return s.r.Recover(faulty, globalLI)
}

// Oracle returns the ground-truth checkpoint-and-communication pattern of
// the execution so far.
func (s *System) Oracle() *CCP { return s.r.Oracle() }

// RetainedCounts returns, per process, the number of stable checkpoints
// currently held in stable storage.
func (s *System) RetainedCounts() []int {
	out := make([]int, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = len(s.r.Store(i).Indices())
	}
	return out
}

// Retained returns the stable-checkpoint indices process i currently holds.
func (s *System) Retained(i int) []int { return s.r.Store(i).Indices() }

// CurrentDV returns a copy of process i's dependency vector.
func (s *System) CurrentDV(i int) []int { return s.r.CurrentDV(i) }

// StorageStats returns process i's storage counters (live, peak, bytes).
func (s *System) StorageStats(i int) storage.Stats { return s.r.Store(i).Stats() }

// Stats returns the execution counters.
func (s *System) Stats() sim.Metrics { return s.r.Metrics() }

// History returns the executed script, including forced checkpoints.
func (s *System) History() Script { return s.r.History() }
