// Package sim executes distributed checkpointing executions deterministically.
//
// A Runner is the deterministic driver of the shared middleware kernel
// (internal/node): it drives n kernels through an application-level script
// (sends, receives, basic checkpoints) in a fixed total order. All
// per-process middleware logic — dependency-vector merge, piggyback build
// and compression, the forced-checkpoint decision, stable-store writes and
// rollback — lives in the kernel; the runner contributes what a
// deterministic experiment needs: script execution, global message
// numbering, a ground-truth mirror of the pattern through internal/ccp, and
// execution metrics, so every experiment can compare what the collectors
// did against what the oracles say.
//
// The runner also orchestrates recovery sessions (Section 2.4): Recover
// crashes a faulty set, computes the recovery line per Lemma 1 from the
// stored vectors (as a centralized recovery manager would), rolls kernels
// back, runs Algorithm 3 on the collectors, and truncates the mirror to the
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
	// StateBytes is the size of the opaque state saved with each
	// checkpoint (for byte accounting); default 0.
	StateBytes int
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
	// messages: n per send with full vectors, only the changed entries
	// per delivery with Compress.
	PiggybackEntries int
}

// Runner executes scripts against the configured middleware stack.
type Runner struct {
	cfg   Config
	procs []*node.Kernel

	hist    ccp.Script // executed history, global message numbering
	mirror  *ccp.Builder
	sendPB  map[int]protocol.Piggyback // piggyback per in-transit global message id
	sendMd  map[int]sendMeta           // per in-transit global message id: sender bookkeeping
	sent    []int                      // sends so far per process
	metrics Metrics
	events  int

	// dvFree recycles piggyback snapshot vectors: a send takes one, the
	// delivery that consumes it puts it back. Scripts are self-contained
	// (a message cannot be delivered in a later Run call), so a delivered
	// snapshot can never be read again.
	dvFree []vclock.DV
	state  []byte // shared zero state buffer (stores copy defensively)
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
	r := &Runner{
		cfg:    cfg,
		hist:   ccp.Script{N: cfg.N},
		mirror: ccp.NewBuilder(cfg.N),
		sendPB: make(map[int]protocol.Piggyback),
		sendMd: make(map[int]sendMeta),
		sent:   make([]int, cfg.N),
	}
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

// CheckpointState implements node.Driver: the opaque payload stored with
// each checkpoint for byte accounting.
func (r *Runner) CheckpointState() []byte {
	if r.cfg.StateBytes <= 0 {
		return nil
	}
	// One shared zero buffer: stores copy State defensively, so every
	// checkpoint can hand in the same backing array.
	if r.state == nil {
		r.state = make([]byte, r.cfg.StateBytes)
	}
	return r.state
}

// OnKernelCheckpoint implements node.Driver: checkpoints (basic and the
// forced ones Deliver takes) are recorded in the history and mirror at the
// instant they become durable, keeping the linearized order exact.
func (r *Runner) OnKernelCheckpoint(self, index int, basic bool) {
	r.hist.Checkpoint(self)
	r.mirror.Checkpoint(self)
	if basic {
		r.metrics.Basic++
	} else {
		r.metrics.Forced++
	}
}

// N returns the number of processes.
func (r *Runner) N() int { return r.cfg.N }

// Run executes the application script. Message numbers are local to the
// script; each Run call must use a self-contained script.
func (r *Runner) Run(script ccp.Script) error {
	if script.N != r.cfg.N {
		return fmt.Errorf("sim: script for %d processes, runner has %d", script.N, r.cfg.N)
	}
	if err := script.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	msgMap := make(map[int]int) // script msg -> global msg
	for _, op := range script.Ops {
		switch op.Kind {
		case ccp.OpCheckpoint:
			if _, err := r.procs[op.P].Checkpoint(true); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		case ccp.OpSend:
			msgMap[op.Msg] = r.send(r.procs[op.P])
		case ccp.OpRecv:
			if err := r.deliver(r.procs[op.P], msgMap[op.Msg]); err != nil {
				return err
			}
		}
		if err := r.afterEvent(); err != nil {
			return err
		}
	}
	return nil
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

// EntryBuf implements node.Driver. The runner encodes lazily (EncodeFor,
// which reuses the kernel's own buffer) and never calls Kernel.Send on a
// compressing kernel, so there is nothing to recycle.
func (r *Runner) EntryBuf() []node.Entry { return nil }

func (r *Runner) send(p *node.Kernel) int {
	// Scripts bind the destination at the receive operation, so the kernel
	// produces a full snapshot here; compressed runs encode lazily at
	// delivery (EncodeFor), which under per-pair FIFO is identical to
	// sender-side encoding.
	pb := p.SendSnapshot()
	g := r.hist.Send(p.ID())
	r.mirror.Send(p.ID())
	r.sendPB[g] = protocol.Piggyback{DV: pb.DV, Index: pb.Index}
	r.sendMd[g] = sendMeta{by: p.ID(), ord: r.sent[p.ID()], pos: pb.Pos}
	r.sent[p.ID()]++
	r.metrics.Sends++
	return g
}

// sendMeta is the per-in-transit-message bookkeeping the lazy compressed
// encode needs: the sender, its per-process send order, and the sender's
// change-log position at send time.
type sendMeta struct {
	by, ord, pos int
}

func (r *Runner) deliver(p *node.Kernel, gmsg int) error {
	snap, ok := r.sendPB[gmsg]
	if !ok {
		return fmt.Errorf("sim: delivery of unknown message %d", gmsg)
	}
	pb := node.Piggyback{DV: snap.DV, Index: snap.Index}
	if r.cfg.Compress {
		md := r.sendMd[gmsg]
		entries, ord, err := r.procs[md.by].EncodeFor(p.ID(), md.ord, md.pos, snap.DV)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		pb = node.Piggyback{Entries: entries, Compressed: true, From: md.by, Ord: ord, Index: snap.Index}
	}
	if _, err := p.Deliver(pb); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	r.hist.Recv(p.ID(), gmsg)
	r.mirror.Receive(p.ID(), gmsg)
	r.metrics.Delivered++
	// The message is consumed: recycle the snapshot and drop the
	// bookkeeping for its id (scripts cannot deliver it again).
	r.dvFree = append(r.dvFree, snap.DV)
	delete(r.sendPB, gmsg)
	delete(r.sendMd, gmsg)
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

// Oracle returns the ground-truth CCP of the execution so far.
func (r *Runner) Oracle() *ccp.CCP { return r.mirror.Build() }

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
