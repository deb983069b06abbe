// Package storage provides the stable-storage abstraction of the model
// (Section 2): a per-process store of stable checkpoints that persists
// through crashes. There are two implementations. MemStore, here, is a plain
// in-memory map from index to checkpoint: the simulator's store and the
// oracle the other is tested against ("stable" means surviving a simulated
// crash: the kernel's volatile state is discarded, the store kept). The
// group-commit log store in generations (internal/storage/logstore) is the
// durable one: a saved record is flushed before Save returns — or, for a
// caller that has taken the wait on itself with NotifyDurable, before the
// store reports its stage sequence number durable. This package holds the
// on-disk record format (record.go) the log's frames carry: one kind, the
// whole checkpoint, so a record decodes on its own.
//
// Both stores track the live-checkpoint count and its high-water mark, which
// the experiments use to measure the space bounds of Section 4.5.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Checkpoint is the unit of stable storage: a process's saved state together
// with the dependency vector recorded at the instant it was taken (needed
// for recovery-line computation and rollback, Section 4.3).
type Checkpoint struct {
	Process int
	Index   int
	DV      vclock.DV
	State   []byte // opaque application state
}

// Store is the stable-storage interface used by the checkpointing
// middleware and the garbage collectors.
type Store interface {
	// Save writes a checkpoint: every later call on this Store sees it, and
	// Save returns once it is durable — unless the caller registered a
	// NotifyDurable callback, in which case Save returns once the checkpoint
	// is staged and durability is reported to the callback. Saving the same
	// index twice is an error: checkpoint indices are unique per process.
	// A deleted index is free again at once (a rollback re-saves it).
	// Implementations must not retain cp.DV or cp.State (copy or encode them
	// before returning), so callers can pass live vectors and reused buffers
	// — the per-message paths depend on this to stay allocation-lean.
	Save(cp Checkpoint) error
	// NotifyDurable takes the wait for durability off Save and hands it to
	// the caller (the output-commit rule: be asynchronous inside a process,
	// synchronous at its boundary). Every Save after it is numbered with the
	// next stage sequence number — per store, from 1, never reused, so a
	// rollback that saves an index again gets a new one — and returns as soon
	// as the checkpoint is staged. The store calls fn(seq, nil) once every
	// save staged up to seq is durable, with seq non-decreasing from call to
	// call, and fn(seq, err) once, with its sticky error, if it fails with
	// saves staged and not durable: those never will be. fn is called from
	// the store's own goroutine with no store lock held; it must not call
	// into the store. Close settles every staged save before it returns.
	// Register at most once, before the first Save. A store whose Save is
	// durable when it returns anyway (MemStore) never calls fn.
	NotifyDurable(fn func(seq uint64, err error))
	// Staged returns the stage sequence number of the most recent Save, the
	// value the NotifyDurable callback is (or was) called with once that
	// save is durable; 0 while no save has been staged — always, for a store
	// with no callback registered or with nothing ever pending.
	Staged() uint64
	// Delete removes the checkpoint with the given index: every later call
	// on this Store sees it gone. Deleting an absent index is an error: the
	// collectors must never double-free.
	//
	// Durability. The paper's collector is asynchronous — eliminating an
	// obsolete checkpoint saves space and is never on the correctness path —
	// so a store need not make a delete durable before returning, only no
	// later than the next acknowledged Save or Close. A crash in between
	// may resurrect the checkpoint. That is safe: an obsolete checkpoint
	// belongs to no recovery line, and the Rollback every restart runs
	// (Algorithm 3) rebuilds UC from whatever checkpoints survive and
	// eliminates the unreferenced ones again. The exception is the most
	// recent checkpoint, which only a rollback deletes: a restart resumes
	// from the most recent checkpoint it finds, so that delete — and with it
	// every delete issued before it — is durable when Delete returns.
	// MemStore applies every delete at once; the log store defers as far as
	// this contract allows.
	Delete(index int) error
	// Load returns the checkpoint with the given index. Its vector and state
	// are the caller's until it hands them back with Release; a caller that
	// never releases keeps them.
	Load(index int) (Checkpoint, error)
	// LoadDV reads the dependency vector of the checkpoint with the given
	// index into dst — grown only when it is shorter than the vector — and
	// returns it; the caller owns it, and none of the checkpoint's state is
	// read. The readers that compare vectors alone (the rollback's survivor
	// pass, the recovery line, the global collector) call it with scratch
	// they keep, and only the checkpoint a process restores from costs a
	// Load. It fails where Load fails, with the same errors, and makes the
	// same structural checks of what it reads.
	LoadDV(index int, dst vclock.DV) (vclock.DV, error)
	// Release hands back a checkpoint Load returned, which the caller does
	// not touch again: the store may reuse its memory for a later Load. A
	// restart restores its application from the state (app.App.Restore reads
	// it for the call) and releases it at once, so a store that reuses the
	// memory serves restarts without copying a snapshot out. Release each
	// loaded checkpoint at most once, and nothing Load did not return; with
	// those kept, concurrent callers never share memory.
	Release(cp Checkpoint)
	// Indices returns the indices of stored checkpoints in ascending order.
	Indices() []int
	// Stats returns space-accounting counters.
	Stats() Stats
}

// Stats reports the space accounting of a store.
type Stats struct {
	Live      int // checkpoints currently stored
	Peak      int // high-water mark of Live
	Saved     int // total checkpoints ever saved
	Collected int // total checkpoints ever deleted
	LiveBytes int // bytes currently stored (state only)
	PeakBytes int // high-water mark of LiveBytes
}

// MemStore is an in-memory Store: a map from index to the store's own copy
// of each checkpoint. The zero value is not usable; use NewMemStore.
// MemStore is safe for concurrent use.
//
// It encodes nothing: Save costs one O(n) copy of the vector, Load one more
// and a copy of the state, and LoadDV one O(n) copy into the caller's
// vector. Load copies into the memory Release hands back when there is
// some, so a load that is released before the next allocates nothing.
type MemStore struct {
	mu     sync.Mutex
	byIdx  map[int]memRec
	sorted []int // live indices, ascending — maintained incrementally
	stats  Stats

	// spare holds the vectors of the records deleted last, for the next Save
	// to copy into: a collector that deletes as fast as it saves (RDT-LGC,
	// Section 4.5) then saves without allocating. A fixed array, so keeping a
	// spare costs nothing and the list cannot grow. Load copies into a spare
	// too, and Release adds the vector it hands back: no spare is ever
	// memory a caller still holds.
	spare  [maxSpare]vclock.DV
	nSpare int
	// spareState is the state of a checkpoint Release handed back, for the
	// next Load of a non-empty state to copy into.
	spareState []byte

	obs    obs.StoreMetrics // zero (free) unless SetObs attached handles
	flight *obs.Recorder
	proc   int
}

// SetObs implements obs.Instrumentable: the engines attach telemetry after
// construction (the Store interface itself stays telemetry-free). With all
// handles nil the store is on the free path.
func (s *MemStore) SetObs(m obs.StoreMetrics, rec *obs.Recorder, process int) {
	s.mu.Lock()
	s.obs, s.flight, s.proc = m, rec, process
	s.mu.Unlock()
}

// memRec is one stored checkpoint.
type memRec struct {
	process int
	dv      vclock.DV
	state   []byte
}

// maxSpare bounds MemStore's spare list: a burst of collections larger than
// this drops the rest to the garbage collector.
const maxSpare = 16

// InsertSorted adds idx to an ascending index slice, the form both stores
// keep their live indices in. Checkpoint indices almost always arrive in
// increasing order, so the common case is a plain append; rollback re-saves
// after a recovery session take the binary-search path.
func InsertSorted(s []int, idx int) []int {
	if n := len(s); n == 0 || idx > s[n-1] {
		return append(s, idx)
	}
	at, _ := slices.BinarySearch(s, idx)
	return slices.Insert(s, at, idx)
}

// RemoveSorted deletes idx from an ascending index slice; an absent idx
// leaves it as it was.
func RemoveSorted(s []int, idx int) []int {
	at, ok := slices.BinarySearch(s, idx)
	if !ok {
		return s
	}
	return slices.Delete(s, at, at+1)
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{byIdx: make(map[int]memRec)}
}

// Save implements Store, copying the vector into a spare when one of the
// right size is at hand.
func (s *MemStore) Save(cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t0 time.Time
	if s.obs.SaveNs != nil {
		t0 = time.Now()
	}
	if _, dup := s.byIdx[cp.Index]; dup {
		return fmt.Errorf("storage: duplicate save of checkpoint %d of p%d", cp.Index, cp.Process)
	}
	rec := memRec{process: cp.Process, dv: s.copyLocked(cp.DV), state: append([]byte(nil), cp.State...)}
	s.byIdx[cp.Index] = rec
	s.sorted = InsertSorted(s.sorted, cp.Index)
	s.stats.Saved++
	s.stats.Live++
	s.stats.LiveBytes += len(cp.State)
	if s.stats.Live > s.stats.Peak {
		s.stats.Peak = s.stats.Live
	}
	if s.stats.LiveBytes > s.stats.PeakBytes {
		s.stats.PeakBytes = s.stats.LiveBytes
	}
	s.obs.Saves.Inc()
	s.obs.Retained.Add(1)
	if s.obs.SaveNs != nil {
		s.obs.SaveNs.Observe(time.Since(t0).Nanoseconds())
	}
	return nil
}

// Delete implements Store: the record goes at once, its index is free for a
// later Save, and its vector is kept as a spare.
func (s *MemStore) Delete(index int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byIdx[index]
	if !ok {
		return fmt.Errorf("storage: delete of absent checkpoint %d", index)
	}
	delete(s.byIdx, index)
	s.spareLocked(rec.dv)
	s.sorted = RemoveSorted(s.sorted, index)
	s.stats.Collected++
	s.stats.Live--
	s.stats.LiveBytes -= len(rec.state)
	s.obs.Deletes.Inc()
	s.obs.Retained.Add(-1)
	s.flight.Record(obs.Event{Kind: obs.EvCollect, P: s.proc, Msg: index})
	return nil
}

// copyLocked returns a copy of dv, in a spare of the right size when one is
// at hand.
func (s *MemStore) copyLocked(dv vclock.DV) vclock.DV {
	if k := s.nSpare - 1; k >= 0 && len(s.spare[k]) == len(dv) {
		s.nSpare = k
		s.spare[k].CopyFrom(dv)
		return s.spare[k]
	}
	return dv.Clone()
}

// spareLocked keeps dv, which no record or caller holds any more, for the
// next copy, if the spare list has room.
func (s *MemStore) spareLocked(dv vclock.DV) {
	if len(dv) > 0 && s.nSpare < maxSpare {
		s.spare[s.nSpare] = dv
		s.nSpare++
	}
}

// Load implements Store, returning copies the caller owns, made in memory
// Release handed back when there is some.
func (s *MemStore) Load(index int) (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byIdx[index]
	if !ok {
		return Checkpoint{}, fmt.Errorf("storage: load of absent checkpoint %d", index)
	}
	var t0 time.Time
	if s.obs.LoadNs != nil {
		t0 = time.Now()
	}
	cp := Checkpoint{
		Process: rec.process,
		Index:   index,
		DV:      s.copyLocked(rec.dv),
	}
	if len(rec.state) > 0 {
		cp.State = append(s.spareState[:0], rec.state...)
		s.spareState = nil
	}
	if s.obs.LoadNs != nil {
		s.obs.LoadNs.Observe(time.Since(t0).Nanoseconds())
	}
	return cp, nil
}

// LoadDV implements Store, copying the vector alone into dst.
func (s *MemStore) LoadDV(index int, dst vclock.DV) (vclock.DV, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byIdx[index]
	if !ok {
		return nil, fmt.Errorf("storage: load of absent checkpoint %d", index)
	}
	return append(dst[:0], rec.dv...), nil
}

// Release implements Store, keeping the vector as a spare and the state,
// if the state slot is empty, for the next Load.
func (s *MemStore) Release(cp Checkpoint) {
	s.mu.Lock()
	s.spareLocked(cp.DV)
	if s.spareState == nil && cap(cp.State) > 0 {
		s.spareState = cp.State
	}
	s.mu.Unlock()
}

// NotifyDurable implements Store: a MemStore save is as stable as it will
// ever be when Save returns, so there is nothing to report.
func (s *MemStore) NotifyDurable(func(seq uint64, err error)) {}

// Staged implements Store: nothing is ever pending.
func (s *MemStore) Staged() uint64 { return 0 }

// Indices implements Store. The sorted slice is maintained incrementally
// by Save and Delete — the collectors and rehydration call Indices on hot
// recovery paths, so it must not re-sort the live set every time — and a
// copy is returned so callers cannot alias the internal state.
func (s *MemStore) Indices() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sorted...)
}

// Stats implements Store.
func (s *MemStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
