// Package gc defines the garbage-collection interfaces shared by the
// simulator and implements the baseline collectors the paper compares
// against:
//
//   - NoGC — keeps every checkpoint (the price of autonomy, Section 1);
//   - Synchronous — evaluates Theorem 1 with global knowledge, the optimal
//     collection any algorithm can achieve (a reimplementation of the Wang
//     et al. coordinator-based collector the paper cites as [21]);
//   - RecoveryLine — the simple scheme of [5, 8]: periodically compute the
//     recovery line for the failure of all processes and discard everything
//     behind it. It needs control messages and bounds nothing.
//
// RDT-LGC itself (package internal/core) implements the Local interface;
// Synchronous and RecoveryLine implement Global because they inherently
// require information a single process does not have — that is exactly the
// gap Theorem 5 quantifies.
package gc

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// Local is the asynchronous per-process collector interface: it reacts only
// to local events and piggybacked timestamps (Definition 8).
type Local interface {
	// OnCheckpoint runs after checkpoint index was durably stored and
	// before the local DV entry is incremented; dv is the vector stored
	// with the checkpoint (read-only — implementations must not retain or
	// mutate it).
	OnCheckpoint(index int, dv vclock.DV) error
	// OnNewInfo runs after a delivery merged the piggybacked vector, with
	// the processes whose entries increased and the post-merge vector
	// (read-only). increased aliases a scratch buffer the middleware
	// reuses on the next delivery: implementations must not retain it
	// (or dv) beyond the call.
	OnNewInfo(increased []int, dv vclock.DV) error
	// Rollback runs Algorithm 3 (or the collector's equivalent) when the
	// process rolls back to stable checkpoint ri; li is the recovery
	// manager's last-interval vector, or nil for uncoordinated recovery.
	// It returns the dependency vector the process resumes with, which the
	// collector may lend from its own scratch: the caller copies it before
	// the collector's next call.
	Rollback(ri int, li []int) (vclock.DV, error)
	// ReleaseStale runs during a recovery session for a process that does
	// not roll back, when the manager's last-interval vector is available.
	ReleaseStale(li []int, dv vclock.DV) error
}

// View is the global system state a Global collector may read. It models
// the reliable control-message exchange previous garbage collectors rely
// on: everything a coordinator could learn by querying every process.
type View interface {
	// N returns the number of processes.
	N() int
	// LastStable returns last_s(i).
	LastStable(i int) int
	// CurrentDV lends process i's volatile dependency vector: the reader
	// must not modify it, nor keep it past the Collect or ComputeLine call
	// it was read in.
	CurrentDV(i int) vclock.DV
	// Store returns process i's stable store.
	Store(i int) storage.Store
}

// Global is a collector that runs with global knowledge (the synchronous
// baselines). Collect inspects the view and deletes obsolete checkpoints
// from the stores.
type Global interface {
	Name() string
	Collect(v View) error
}

// NoGC is a Local collector that never collects anything during normal
// execution. On rollback it still discards the rolled-back checkpoints
// (they denote states that no longer exist) and recreates the dependency
// vector, but retains everything else.
type NoGC struct {
	self  int
	n     int
	store storage.Store
}

// NewNoGC returns the keep-everything baseline for process self of n.
func NewNoGC(self, n int, store storage.Store) *NoGC {
	return &NoGC{self: self, n: n, store: store}
}

// OnCheckpoint implements Local.
func (*NoGC) OnCheckpoint(int, vclock.DV) error { return nil }

// OnNewInfo implements Local.
func (*NoGC) OnNewInfo([]int, vclock.DV) error { return nil }

// Rollback implements Local: it deletes the checkpoints beyond ri and
// recreates the dependency vector from s^ri.
func (g *NoGC) Rollback(ri int, _ []int) (vclock.DV, error) {
	dv, err := RollbackStore(g.store, g.self, ri)
	if err != nil {
		return nil, fmt.Errorf("gc: nogc: %w", err)
	}
	return dv, nil
}

// ReleaseStale implements Local.
func (*NoGC) ReleaseStale([]int, vclock.DV) error { return nil }

// RollbackStore removes every checkpoint with index > ri from the store and
// returns the dependency vector recreated from s^ri (Algorithm 3, lines
// 4-6). It is shared by collectors whose rollback handling has no UC state.
func RollbackStore(store storage.Store, self, ri int) (vclock.DV, error) {
	found := false
	for _, idx := range store.Indices() {
		if idx > ri {
			if err := store.Delete(idx); err != nil {
				return nil, err
			}
		}
		if idx == ri {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("rollback target checkpoint %d not in store", ri)
	}
	dv, err := store.LoadDV(ri, nil)
	if err != nil {
		return nil, err
	}
	if self < 0 || self >= len(dv) {
		return nil, fmt.Errorf("rollback target checkpoint %d of p%d has a %d-entry vector", ri, self, len(dv))
	}
	dv[self]++
	return dv, nil
}
