// Package node is the per-process checkpointing-middleware kernel shared by
// both execution engines. A Kernel owns everything one process of the model
// carries — dependency vector, current-interval index, checkpointing
// protocol, local garbage collector, stable store, optional application
// state machine, and the reused scratch buffers of the per-message hot
// paths — and implements the one algorithm both engines execute: piggyback
// build, forced-checkpoint decision, vector merge, collector notification,
// stable-store writes, rollback, crash and rehydration.
//
// The engines that drive it stay policy layers: internal/sim supplies
// deterministic script order, the executed history the ground-truth ccp
// oracle is built from, and experiment metrics; internal/runtime supplies
// locks, the asynchronous network, epochs and the crash lifecycle. Neither
// re-implements middleware logic, so a fix or an optimization lands in
// exactly one place — and incremental piggyback compression (compress.go)
// is a kernel capability available to both, not a simulator feature.
//
// Kernels are not safe for concurrent use; the concurrent engine serializes
// access per node.
package node

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Config assembles a Kernel. Protocol and LocalGC are factories so Rehydrate
// can construct conservative fresh instances after a crash; NewApp runs once,
// in New, since a crash destroys the application's state, not its object.
type Config struct {
	// ID is this process's identity, N the system size.
	ID, N int
	// Store is the process's stable store; it must be empty (New saves the
	// initial checkpoint s^0) and it survives CrashVolatile.
	Store storage.Store
	// Protocol constructs the forced-checkpoint decision procedure
	// (default: FDAS).
	Protocol func(self int) protocol.Protocol
	// LocalGC constructs the local collector (default: keep everything).
	LocalGC func(self, n int, store storage.Store) gc.Local
	// NewApp, if set, attaches an application state machine: its snapshot
	// is saved with every checkpoint and restored by Rollback. New calls it
	// once; the instance is kept across crashes.
	NewApp func(self int) app.App
	// Compress piggybacks only the dependency-vector entries changed since
	// the previous send to the same destination (Singhal–Kshemkalyani).
	// It requires reliable per-pair FIFO delivery; Deliver fails loudly on
	// any out-of-order or missing compressed message.
	Compress bool
	// Driver, if set, customizes the kernel's integration with the engine
	// that owns it. A single interface value (typically the engine itself)
	// serves every kernel, so construction stays allocation-free.
	Driver Driver
	// Metrics are the kernel's telemetry handles (obs.KernelMetricsFrom).
	// The zero value — all-nil handles — is the default and costs nothing
	// on any path.
	Metrics obs.KernelMetrics
}

// Driver is the engine-side integration surface of a kernel. Both engines
// implement it: the simulator routes snapshot clones through its freelist
// and records checkpoints in its script history; the live runtime records
// them in its linearized history.
type Driver interface {
	// CloneDV produces the dependency-vector snapshot a full piggyback
	// carries; engines with a snapshot freelist serve it from there so the
	// kernel's send path stays allocation-lean.
	CloneDV(src vclock.DV) vclock.DV
	// EntryBuf returns an empty buffer for the entries of a compressed
	// piggyback (Kernel.Send) — of any capacity, nil included; the kernel
	// grows it at most once, to the message's entry count. An engine that
	// learns when a message's piggyback is dead serves the buffers from a
	// freelist, as with CloneDV.
	EntryBuf() []Entry
	// OnKernelCheckpoint runs after kernel self stored checkpoint index —
	// Store.Save returned: durable, or only staged if the engine took the
	// wait for durability on itself with Store.NotifyDurable — and made it
	// visible to its collector (basic and forced alike, including the forced
	// checkpoints Deliver takes). Engines hook their history recording here
	// so forced checkpoints land at the right point of the linearized order;
	// an engine that stages reads the checkpoint's stage number here.
	OnKernelCheckpoint(self, index int, basic bool)
}

// Kernel is one process's middleware state.
type Kernel struct {
	cfg   Config
	dv    vclock.DV
	lastS int
	store storage.Store
	proto protocol.Protocol
	gcol  gc.Local
	app   app.App

	// scratch is the reused changed-index buffer of the delivery-path
	// merge.
	scratch []int
	// snap is the reused buffer the application snapshots into on every
	// checkpoint; Store.Save never retains cp.State, so the next checkpoint
	// overwrites it.
	snap []byte

	comp *compressor // non-nil iff cfg.Compress and not crashed

	basic, forced int
	// pbEntries counts the dependency-vector entries piggybacked on
	// messages: N per full-vector send, the changed entries per encode
	// with compression.
	pbEntries int

	// parked holds the application object while the kernel is crashed:
	// CrashVolatile takes it off app and Rehydrate puts it back, for the
	// rollback that follows to replace its state (app.App.Restore).
	parked app.App
	// handoff is the checkpoint Rehydrate read, kept while an application
	// is attached for the first Rollback after it: when that rollback
	// targets handoff's index it restores the application from it, not
	// from a second Load of the same record.
	handoff   storage.Checkpoint
	handedOff bool
}

// Piggyback is the control information one application message carries
// between kernels: either a full dependency-vector snapshot or, with
// compression, the entries changed since the pair's previous message.
type Piggyback struct {
	// DV is the sender's full vector snapshot (nil when Compressed).
	DV vclock.DV
	// Entries are the changed entries of a compressed piggyback.
	Entries []Entry
	// Compressed distinguishes an empty compressed piggyback (no entry
	// changed) from a full-vector one.
	Compressed bool
	// From is the sending process; with Ord it lets the receiving kernel
	// verify per-pair FIFO delivery of compressed piggybacks.
	From int
	// Ord is the sender's per-destination encode order, contiguous from 0.
	Ord int
	// Index is the protocol-specific piggyback index (BCS).
	Index int
}

// New builds the kernel and stores the initial checkpoint s^0 with the zero
// vector, as the model requires, before any activity.
func New(cfg Config) (*Kernel, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("node: need at least one process")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.N {
		return nil, fmt.Errorf("node: process %d out of range [0,%d)", cfg.ID, cfg.N)
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("node: p%d has no stable store", cfg.ID)
	}
	if cfg.Protocol == nil {
		cfg.Protocol = func(int) protocol.Protocol { return protocol.NewFDAS() }
	}
	if cfg.LocalGC == nil {
		cfg.LocalGC = func(self, n int, st storage.Store) gc.Local { return gc.NewNoGC(self, n, st) }
	}
	k := &Kernel{
		cfg:     cfg,
		dv:      vclock.New(cfg.N),
		store:   cfg.Store,
		proto:   cfg.Protocol(cfg.ID),
		scratch: make([]int, 0, cfg.N),
	}
	if cfg.NewApp != nil {
		k.app = cfg.NewApp(cfg.ID)
	}
	// Stores copy DV and State defensively (see storage.Store.Save), so
	// the live vector and reused state buffers are passed without clones.
	if err := k.store.Save(storage.Checkpoint{
		Process: cfg.ID, Index: 0, DV: k.dv, State: k.snapshot(),
	}); err != nil {
		return nil, fmt.Errorf("node: initial checkpoint of p%d: %w", cfg.ID, err)
	}
	k.gcol = cfg.LocalGC(cfg.ID, cfg.N, k.store)
	if cfg.Compress {
		k.comp = newCompressor(cfg.N)
	}
	k.dv[cfg.ID] = 1
	if k.comp != nil {
		k.comp.note(cfg.ID)
	}
	return k, nil
}

// ID returns the kernel's process identity.
func (k *Kernel) ID() int { return k.cfg.ID }

// Send produces the piggyback for a message to dest and notifies the
// protocol of the send. With compression the changed entries are encoded
// here, against the pair's previous message, into a buffer from the
// driver's EntryBuf hook, which the engine owns until the message is
// consumed; without it the piggyback is a full snapshot (via the CloneDV
// hook) and dest is not consulted.
func (k *Kernel) Send(dest int) (pb Piggyback, err error) {
	err = k.send(dest, &pb)
	return pb, err
}

// send is Send writing into pb. It keeps Send small enough to inline, so a
// caller's piggyback is built in the caller's frame and copied out once, not
// returned through a temporary.
func (k *Kernel) send(dest int, pb *Piggyback) error {
	if !k.cfg.Compress {
		k.snapshotTo(pb)
		return nil
	}
	if dest < 0 || dest >= k.cfg.N || dest == k.cfg.ID {
		return fmt.Errorf("node: p%d sending to invalid destination %d", k.cfg.ID, dest)
	}
	idx := k.proto.OnSend()
	entries, ord, err := k.comp.encode(dest, k.dv)
	if err != nil {
		return err
	}
	// The result escapes onto the engine's network, so it leaves the
	// encoder's buffer for one the driver owns — sized by what this message
	// carries, never by n.
	var buf []Entry
	if k.cfg.Driver != nil {
		buf = k.cfg.Driver.EntryBuf()
	}
	entries = append(buf[:0], entries...)
	k.pbEntries += len(entries)
	k.cfg.Metrics.PiggybackEntries.Add(uint64(len(entries)))
	k.cfg.Metrics.PiggybackFull.Add(uint64(k.cfg.N))
	k.cfg.Metrics.PiggybackBytes.Add(uint64(16 * len(entries)))
	pb.Entries, pb.Compressed, pb.From, pb.Ord, pb.Index = entries, true, k.cfg.ID, ord, idx
	return nil
}

// SendSnapshot produces a full-vector piggyback without binding a
// destination and notifies the protocol of the send. Without compression it
// is what Send returns. A compressing kernel's engine calls it for a message
// no process will receive — a simulator script may leave one in transit —
// so the protocol sees the send and no pair's encoder moves.
func (k *Kernel) SendSnapshot() (pb Piggyback) {
	k.snapshotTo(&pb)
	return pb
}

// snapshotTo is SendSnapshot writing into the caller's piggyback, which
// Send and SendSnapshot fill as their named result: the 80-byte value is
// built where it is returned, not in a temporary copied out through each.
func (k *Kernel) snapshotTo(pb *Piggyback) {
	pb.Index = k.proto.OnSend()
	if !k.cfg.Compress {
		k.pbEntries += k.cfg.N
		k.cfg.Metrics.PiggybackEntries.Add(uint64(k.cfg.N))
		k.cfg.Metrics.PiggybackFull.Add(uint64(k.cfg.N))
		k.cfg.Metrics.PiggybackBytes.Add(uint64(8 * k.cfg.N))
	}
	pb.DV = k.cloneDV()
}

// cloneDV snapshots the live vector through the driver's allocator.
func (k *Kernel) cloneDV() vclock.DV {
	if k.cfg.Driver != nil {
		return k.cfg.Driver.CloneDV(k.dv)
	}
	return k.dv.Clone()
}

// Deliver processes an incoming message: forced checkpoint first if the
// protocol demands one (stored before the collector work, per the paper's
// Section 4.5 ordering remark), then vector merge, collector notification
// and protocol notification. It reports whether a forced checkpoint was
// taken. pb's vector (or expanded equivalent) is only read for the duration
// of the call; protocols and collectors must not retain it.
func (k *Kernel) Deliver(pb Piggyback) (forced bool, err error) { return k.deliver(&pb) }

// deliver is Deliver reading the piggyback in place: DeliverBatch hands it
// the batch's own entry, so a full-vector message is not copied to be
// delivered. It is the one delivery step of both engines.
func (k *Kernel) deliver(pb *Piggyback) (forced bool, err error) {
	decision := protocol.Piggyback{DV: pb.DV, Index: pb.Index}
	if pb.Compressed {
		if err := k.comp.verifyArrival(pb.From, pb.Ord); err != nil {
			return false, err
		}
		// The protocol decides on the changed entries directly — no full
		// vector is materialized, so the decision costs O(changed).
		decision = protocol.Piggyback{Entries: pb.Entries, Sparse: true, Index: pb.Index}
	}
	if k.proto.ForcedBeforeDelivery(k.dv, decision) {
		forced = true
		if _, err := k.Checkpoint(false); err != nil {
			return false, err
		}
	}
	if pb.Compressed {
		k.scratch = vclock.Delta(pb.Entries).MergeAppend(k.dv, k.scratch[:0])
	} else {
		k.scratch = k.dv.MergeAppend(pb.DV, k.scratch[:0])
	}
	if k.comp != nil && len(k.scratch) > 0 {
		k.comp.note(k.scratch...)
	}
	if err := k.gcol.OnNewInfo(k.scratch, k.dv); err != nil {
		return forced, err
	}
	k.proto.OnDeliver(decision)
	k.cfg.Metrics.Deliveries.Inc()
	return forced, nil
}

// Checkpoint takes a checkpoint (basic or forced): the current interval is
// closed by a store write (durable on return, or staged — see
// storage.Store.Save), the collector is notified, the local vector entry
// advances. It returns the index of the new stable checkpoint.
func (k *Kernel) Checkpoint(basic bool) (int, error) {
	index := k.dv[k.cfg.ID]
	if err := k.store.Save(storage.Checkpoint{
		Process: k.cfg.ID, Index: index, DV: k.dv, State: k.snapshot(),
	}); err != nil {
		return 0, fmt.Errorf("node: checkpoint %d of p%d: %w", index, k.cfg.ID, err)
	}
	if err := k.gcol.OnCheckpoint(index, k.dv); err != nil {
		return 0, err
	}
	k.dv[k.cfg.ID]++
	if k.comp != nil {
		k.comp.note(k.cfg.ID)
	}
	k.lastS = index
	k.proto.OnCheckpoint()
	if basic {
		k.basic++
		k.cfg.Metrics.CheckpointsBasic.Inc()
	} else {
		k.forced++
		k.cfg.Metrics.CheckpointsForced.Inc()
	}
	if k.cfg.Driver != nil {
		k.cfg.Driver.OnKernelCheckpoint(k.cfg.ID, index, basic)
	}
	return index, nil
}

// Rollback rolls the process back to stable checkpoint ri during a recovery
// session: the collector runs its Algorithm 3 variant (with the manager's
// last-interval vector when li is non-nil) and rebuilds the dependency
// vector; the attached application, if any, is restored to the checkpointed
// snapshot — taken from the checkpoint Rehydrate read when ri is its index,
// else loaded from the store.
func (k *Kernel) Rollback(ri int, li []int) error {
	cp, ok := k.handoff, k.handedOff
	k.handoff, k.handedOff = storage.Checkpoint{}, false
	dv, err := k.gcol.Rollback(ri, li)
	if err != nil {
		return err
	}
	k.dv = dv
	k.lastS = ri
	k.proto.OnRollback()
	k.cfg.Metrics.Rollbacks.Inc()
	if k.app != nil {
		if !ok || cp.Index != ri {
			if cp, err = k.store.Load(ri); err != nil {
				return fmt.Errorf("node: restore p%d: %w", k.cfg.ID, err)
			}
		}
		if err := k.app.Restore(cp.State); err != nil {
			return fmt.Errorf("node: restore p%d: %w", k.cfg.ID, err)
		}
	}
	return nil
}

// ReleaseStale runs the collector's recovery-session release for a process
// that does not roll back, when the manager's last-interval vector is
// available.
func (k *Kernel) ReleaseStale(li []int) error { return k.gcol.ReleaseStale(li, k.dv) }

// CrashVolatile discards everything a failure destroys — dependency vector,
// protocol, collector, application and compression state — leaving only the
// stable store. The kernel is unusable until Rehydrate, and has no
// application: App returns nil. The application object is parked, not
// dropped, for Rehydrate to take back; the state it holds is dead, and the
// rollback that follows every Rehydrate replaces it.
func (k *Kernel) CrashVolatile() {
	k.dv = nil
	k.lastS = 0
	k.proto = nil
	k.gcol = nil
	if k.app != nil {
		k.parked, k.app = k.app, nil
	}
	k.handoff, k.handedOff = storage.Checkpoint{}, false
	k.comp = nil
}

// Rehydrate rebuilds a crashed kernel's volatile state from stable storage:
// the dependency vector and interval index come from the most recent stored
// checkpoint (the one checkpoint no collector ever discards), and fresh
// protocol, collector and compression instances are constructed from the
// config factories. The parked application object is taken back, its state
// still dead. The recovery session that follows immediately rolls the
// process back to its recovery-line component, which rebuilds the
// collector's UC state from the surviving checkpoints and restores the
// application — from the checkpoint read here when the component is the
// most recent one — so neither the conservatively fresh instances nor the
// dead state ever face traffic.
func (k *Kernel) Rehydrate(store storage.Store) error {
	if store == nil {
		store = k.store
	}
	indices := store.Indices()
	if len(indices) == 0 {
		return fmt.Errorf("node: rehydrate p%d: stable store holds no checkpoint", k.cfg.ID)
	}
	last := indices[len(indices)-1]
	cp, err := store.Load(last)
	if err != nil {
		return fmt.Errorf("node: rehydrate p%d: %w", k.cfg.ID, err)
	}
	if cp.DV.Len() != k.cfg.N {
		return fmt.Errorf("node: rehydrate p%d: checkpoint %d has a %d-entry vector, want %d",
			k.cfg.ID, last, cp.DV.Len(), k.cfg.N)
	}
	k.store = store
	k.dv = cp.DV.Clone()
	k.dv[k.cfg.ID]++ // the process resumes in the interval after its last checkpoint
	k.lastS = last
	k.proto = k.cfg.Protocol(k.cfg.ID)
	k.gcol = k.cfg.LocalGC(k.cfg.ID, k.cfg.N, k.store)
	if k.parked != nil {
		k.app, k.parked = k.parked, nil
		k.handoff, k.handedOff = cp, true
	}
	if k.cfg.Compress {
		k.comp = newCompressor(k.cfg.N)
	}
	return nil
}

// ResetCompression discards all per-pair incremental-piggyback state, so
// the next message of every pair carries a full set of entries. Recovery
// sessions call it on every kernel: rolled-back receivers may have lost
// knowledge the encoders assumed covered, and messages dropped by the
// session's epoch advance break the per-pair delivery chain.
func (k *Kernel) ResetCompression() {
	if k.comp != nil {
		k.comp.reset()
	}
}

// ApplyLine is the per-process half of a recovery session, shared by both
// drivers: given the recovery line (one checkpoint index per kernel, where
// last_s(j)+1 denotes a volatile component), every kernel whose component is
// stable rolls back to it and the others resume — running ReleaseStale when
// the manager distributes the last-interval vector (globalLI) — and then
// every pair's incremental piggyback state is reset: rolled-back receivers
// lost knowledge the encoders assumed covered. rolledBack is told each
// process that rolled back, once it has, and how many stable checkpoints
// beyond the line it discarded. The caller owns everything around it (halting,
// locks, computing and checking the line, cutting recorded history) and
// guarantees len(line) == len(ks) and 0 <= line[j] <= last_s(j)+1. On error
// the kernels are left as far as the session got, compression state not
// reset.
func ApplyLine(ks []*Kernel, line []int, globalLI bool, rolledBack func(j, lostCheckpoints int)) error {
	var li []int
	if globalLI {
		// LI[j] = last_s(j)+1 in the post-recovery pattern: a process with a
		// stable component c rolls back to it (new last_s = c); a process
		// with a volatile component keeps its last_s.
		li = make([]int, len(ks))
		for j, k := range ks {
			li[j] = min(line[j], k.lastS) + 1
		}
	}
	for j, k := range ks {
		if line[j] > k.lastS {
			// Volatile component: the process resumes where it was.
			if globalLI {
				if err := k.ReleaseStale(li); err != nil {
					return err
				}
			}
			continue
		}
		lost := k.lastS - line[j]
		if err := k.Rollback(line[j], li); err != nil {
			return err
		}
		rolledBack(j, lost)
	}
	for _, k := range ks {
		k.ResetCompression()
	}
	return nil
}

// snapshot captures the state saved with a checkpoint: the application's
// snapshot when one is attached (valid until the next call — it lives in the
// kernel's scratch buffer), else nil.
func (k *Kernel) snapshot() []byte {
	if k.app == nil {
		return nil
	}
	k.snap = k.app.AppendSnapshot(k.snap[:0])
	return k.snap
}

// DV returns a copy of the dependency vector.
func (k *Kernel) DV() vclock.DV { return k.dv.Clone() }

// DVRef borrows the live dependency vector; callers must not mutate or
// retain it across kernel calls.
func (k *Kernel) DVRef() vclock.DV { return k.dv }

// LastStable returns last_s: the index of the most recent stable checkpoint.
func (k *Kernel) LastStable() int { return k.lastS }

// Store returns the stable store.
func (k *Kernel) Store() storage.Store { return k.store }

// Collector returns the local collector (for inspection in tests).
func (k *Kernel) Collector() gc.Local { return k.gcol }

// App returns the attached application state machine, or nil.
func (k *Kernel) App() app.App { return k.app }

// Counts returns the basic and forced checkpoints taken so far (cumulative
// across crashes and rollbacks).
func (k *Kernel) Counts() (basic, forced int) { return k.basic, k.forced }

// PiggybackEntries returns the dependency-vector entries this kernel has
// piggybacked on outgoing messages.
func (k *Kernel) PiggybackEntries() int { return k.pbEntries }
