// Package sim executes distributed checkpointing executions deterministically.
//
// A Runner is the deterministic driver of the shared middleware kernel
// (internal/node): it drives n kernels through an application-level script
// (sends, receives, basic checkpoints) in a fixed total order. All
// per-process middleware logic — dependency-vector merge, piggyback build
// and compression, the forced-checkpoint decision, stable-store writes and
// rollback — lives in the kernel; the runner contributes what a
// deterministic experiment needs: script execution, global message
// numbering, one history of the executed pattern (from which Oracle builds
// the internal/ccp ground truth on demand), and execution metrics, so every
// experiment can compare what the collectors did against what the oracles
// say. A script names a message's receiver only at the receive operation;
// Run reads it from the whole script before executing it, so a compressing
// kernel encodes each piggyback at send, exactly as in the live runtime.
//
// The runner also orchestrates recovery sessions (Section 2.4): Recover
// crashes a faulty set, computes the recovery line per Lemma 1 from the
// stored vectors (as a centralized recovery manager would), rolls kernels
// back, runs Algorithm 3 on the collectors, and truncates the history to the
// post-recovery pattern. Execution can then continue with further scripts.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/ccp"
	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Config assembles a Runner. Protocol and LocalGC are per-process
// constructors; NewStore defaults to in-memory stores.
type Config struct {
	N        int
	Protocol func(self int) protocol.Protocol
	LocalGC  func(self, n int, store storage.Store) gc.Local
	NewStore func(self int) (storage.Store, error)
	// GlobalGC, if set, runs every GlobalEvery events (default 1).
	GlobalGC    gc.Global
	GlobalEvery int
	// Compress piggybacks only the dependency-vector entries changed since
	// the previous send to the same destination (Singhal–Kshemkalyani).
	// Requires per-pair FIFO delivery; Run fails on reordered scripts.
	Compress bool
	// AfterEvent, if set, runs after every executed script operation
	// (a forced checkpoint and the delivery that triggered it count as one
	// operation). Used by the test suite to assert invariants at every
	// event boundary.
	AfterEvent func() error
	// Obs attaches live telemetry to the kernels and stores, exactly as in
	// runtime.Config. The simulator records no flight events itself (its
	// history *is* the trace); the recorder, if set, still reaches the
	// stores for collect events. Zero value: everything free.
	Obs obs.Options
}

// Metrics counts what happened during execution.
type Metrics struct {
	Basic       int // basic checkpoints taken
	Forced      int // forced checkpoints taken
	Sends       int
	Delivered   int
	Rollbacks   int // processes rolled back across recovery sessions
	RolledCkpts int // stable checkpoints discarded because they were rolled back
	// PiggybackEntries counts the dependency-vector entries piggybacked on
	// messages: n per send with full vectors, only the changed entries of
	// each delivered message with Compress.
	PiggybackEntries int
}

// Runner executes scripts against the configured middleware stack.
type Runner struct {
	cfg   Config
	procs []*node.Kernel

	hist    ccp.Script // executed history, global message numbering; Oracle builds from it
	metrics Metrics
	events  int

	// transit is Run's table of the script's messages, indexed by script
	// message number. Scripts are self-contained (a message cannot be
	// delivered in a later Run call), so it is scratch: kept for its
	// capacity, emptied before Run returns.
	transit []message

	// dvFree and entFree recycle piggyback buffers — snapshot vectors and
	// compressed entries: a send takes one, the delivery that consumes it
	// (or the end of the Run, for a message left in transit) puts it back.
	dvFree  []vclock.DV
	entFree [][]node.Entry
}

// message is one script message: the process bound to receive it (−1 for
// none), its global id, and its piggyback while it is in transit.
type message struct {
	to, g int
	pb    node.Piggyback
}

// NewRunner builds the system: every kernel stores its initial checkpoint
// s^0 before execution starts, as the model requires.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("sim: need at least one process")
	}
	if cfg.Protocol == nil {
		cfg.Protocol = protocol.Factory("none")
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func(int) (storage.Store, error) { return storage.NewMemStore(), nil }
	}
	if cfg.GlobalEvery <= 0 {
		cfg.GlobalEvery = 1
	}
	r := &Runner{cfg: cfg, hist: ccp.Script{N: cfg.N}}
	for i := 0; i < cfg.N; i++ {
		store, err := cfg.NewStore(i)
		if err != nil {
			_ = r.Close()
			return nil, fmt.Errorf("sim: stable store of p%d: %w", i, err)
		}
		if ins, ok := store.(obs.Instrumentable); ok && (cfg.Obs.Registry != nil || cfg.Obs.Recorder != nil) {
			ins.SetObs(obs.StoreMetricsFrom(cfg.Obs.Registry), cfg.Obs.Recorder, i)
		}
		k, err := node.New(node.Config{
			ID: i, N: cfg.N,
			Store:    store,
			Protocol: cfg.Protocol,
			LocalGC:  cfg.LocalGC,
			Compress: cfg.Compress,
			Driver:   r,
			Metrics:  obs.KernelMetricsFrom(cfg.Obs.Registry),
		})
		if err != nil {
			_ = storage.Close(store) // no kernel holds it yet for Close to find
			_ = r.Close()
			return nil, fmt.Errorf("sim: %w", err)
		}
		r.procs = append(r.procs, k)
	}
	return r, nil
}

// Close closes the stable stores NewRunner opened through Config.NewStore
// (whoever called NewStore closes). The runner is unusable afterwards.
func (r *Runner) Close() error {
	var errs []error
	for _, k := range r.procs {
		errs = append(errs, storage.Close(k.Store()))
	}
	return errors.Join(errs...)
}

// OnKernelCheckpoint implements node.Driver: checkpoints (basic and the
// forced ones Deliver takes) are recorded in the history at the instant they
// become durable, keeping the linearized order exact.
func (r *Runner) OnKernelCheckpoint(self, index int, basic bool) {
	r.hist.Checkpoint(self)
	if basic {
		r.metrics.Basic++
	} else {
		r.metrics.Forced++
	}
}

// N returns the number of processes.
func (r *Runner) N() int { return r.cfg.N }

// Run executes the application script. Message numbers are local to the
// script; each Run call must use a self-contained script, and a message the
// script sends but never receives stays in transit for good — it is lost,
// which the model permits. With Compress a script must deliver each pair's
// messages in send order (per-pair FIFO), or Run fails at the first one out
// of order.
func (r *Runner) Run(script ccp.Script) error {
	if script.N != r.cfg.N {
		return fmt.Errorf("sim: script for %d processes, runner has %d", script.N, r.cfg.N)
	}
	if err := script.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	defer r.endRun()
	// Validate numbers messages 0,1,2,… in send order and puts every receive
	// after its send, so one pass binds each message to its receiver and the
	// sender's kernel encodes at send, as in the live runtime.
	for _, op := range script.Ops {
		switch op.Kind {
		case ccp.OpSend:
			r.transit = append(r.transit, message{to: -1})
		case ccp.OpRecv:
			r.transit[op.Msg].to = op.P
		}
	}
	for _, op := range script.Ops {
		switch op.Kind {
		case ccp.OpCheckpoint:
			if _, err := r.procs[op.P].Checkpoint(true); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		case ccp.OpSend:
			if err := r.send(r.procs[op.P], &r.transit[op.Msg]); err != nil {
				return err
			}
		case ccp.OpRecv:
			if err := r.deliver(r.procs[op.P], &r.transit[op.Msg]); err != nil {
				return err
			}
		}
		if err := r.afterEvent(); err != nil {
			return err
		}
	}
	return nil
}

// endRun recycles the piggybacks of the messages the script left in transit
// and empties the table.
func (r *Runner) endRun() {
	for i := range r.transit {
		r.recycle(r.transit[i].pb)
	}
	clear(r.transit)
	r.transit = r.transit[:0]
}

// CloneDV implements node.Driver: it pops a recycled snapshot vector or
// allocates a fresh one, so every full-vector piggyback draws from the
// runner's freelist.
func (r *Runner) CloneDV(src vclock.DV) vclock.DV {
	if k := len(r.dvFree); k > 0 {
		dv := r.dvFree[k-1]
		r.dvFree = r.dvFree[:k-1]
		dv.CopyFrom(src)
		return dv
	}
	return src.Clone()
}

// EntryBuf implements node.Driver: it pops a recycled entry buffer, or
// returns nil for the kernel to grow.
func (r *Runner) EntryBuf() []node.Entry {
	if k := len(r.entFree); k > 0 {
		buf := r.entFree[k-1]
		r.entFree = r.entFree[:k-1]
		return buf
	}
	return nil
}

// recycle returns a consumed piggyback's buffers to the freelists.
func (r *Runner) recycle(pb node.Piggyback) {
	if pb.DV != nil {
		r.dvFree = append(r.dvFree, pb.DV)
	}
	if pb.Entries != nil {
		r.entFree = append(r.entFree, pb.Entries[:0])
	}
}

// send runs m's send event. A message nobody receives gets a snapshot that
// binds no destination, so no pair's encoder moves for it.
func (r *Runner) send(p *node.Kernel, m *message) error {
	var err error
	if m.to < 0 {
		m.pb = p.SendSnapshot()
	} else if m.pb, err = p.Send(m.to); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	m.g = r.hist.Send(p.ID())
	r.metrics.Sends++
	return nil
}

func (r *Runner) deliver(p *node.Kernel, m *message) error {
	if _, err := p.Deliver(m.pb); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	r.hist.Recv(p.ID(), m.g)
	r.metrics.Delivered++
	r.recycle(m.pb)
	m.pb = node.Piggyback{}
	return nil
}

func (r *Runner) afterEvent() error {
	r.events++
	if r.cfg.GlobalGC != nil && r.events%r.cfg.GlobalEvery == 0 {
		if err := r.cfg.GlobalGC.Collect(r.View()); err != nil {
			return err
		}
	}
	if r.cfg.AfterEvent != nil {
		if err := r.cfg.AfterEvent(); err != nil {
			return err
		}
	}
	return nil
}

// Oracle returns the ground-truth CCP of the execution so far, built from
// the history on demand, as runtime.Cluster.Oracle builds it from its own.
func (r *Runner) Oracle() *ccp.CCP { return r.hist.BuildCCP() }

// History returns a copy of the executed script (including forced
// checkpoints) with global message numbering.
func (r *Runner) History() ccp.Script {
	out := ccp.Script{N: r.hist.N, Ops: append([]ccp.Op(nil), r.hist.Ops...)}
	return out
}

// Metrics returns execution counters. Piggyback-entry counts are
// aggregated from the kernels, which own the encode paths.
func (r *Runner) Metrics() Metrics {
	m := r.metrics
	for _, p := range r.procs {
		m.PiggybackEntries += p.PiggybackEntries()
	}
	return m
}

// Store returns process i's stable store.
func (r *Runner) Store(i int) storage.Store { return r.procs[i].Store() }

// CurrentDV returns a copy of process i's dependency vector.
func (r *Runner) CurrentDV(i int) vclock.DV { return r.procs[i].DV() }

// LastStable returns last_s(i).
func (r *Runner) LastStable(i int) int { return r.procs[i].LastStable() }

// LocalGC returns process i's local collector (for inspection in tests).
func (r *Runner) LocalGC(i int) gc.Local { return r.procs[i].Collector() }

// View adapts the runner to the gc.View interface.
func (r *Runner) View() gc.View { return runnerView{r} }

type runnerView struct{ r *Runner }

func (v runnerView) N() int                    { return v.r.cfg.N }
func (v runnerView) LastStable(i int) int      { return v.r.procs[i].LastStable() }
func (v runnerView) CurrentDV(i int) vclock.DV { return v.r.procs[i].DV() }
func (v runnerView) Store(i int) storage.Store { return v.r.procs[i].Store() }
