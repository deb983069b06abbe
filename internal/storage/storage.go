// Package storage provides the stable-storage abstraction of the model
// (Section 2): a per-process store of stable checkpoints that persists
// through crashes. There are two implementations. MemStore, here, is the
// accounting-only in-memory store: the simulator's store and the oracle the
// other is tested against ("stable" means surviving a simulated crash: the
// kernel's volatile state is discarded, the store kept). The segmented
// group-commit log store (internal/storage/logstore) is the durable one:
// a saved record is flushed before Save returns — or, for a caller that has
// taken the wait on itself with NotifyDurable, before the store reports its
// stage sequence number durable. This package also holds the one on-disk
// record format (record.go), which the log's frames carry.
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
	// Load returns the checkpoint with the given index.
	Load(index int) (Checkpoint, error)
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

// MemStore is an in-memory Store. The zero value is not usable; use
// NewMemStore. MemStore is safe for concurrent use.
//
// Checkpoints are held delta-encoded, the shape the log store writes to
// disk: every fullEvery-th record keeps its complete dependency vector, the
// records between keep only the entries that changed against their
// predecessor. Save therefore retains O(changed) instead of cloning a
// size-n vector per checkpoint — the per-checkpoint cost the simulator's
// hot path pays — while Load (recovery paths only) reconstructs through the
// chain.
type MemStore struct {
	mu     sync.Mutex
	byIdx  map[int]memRec
	child  map[int]int // base index -> its delta-encoded dependent
	sorted []int       // live indices, ascending — maintained incrementally
	stats  Stats

	lastIdx int // most recent save, base candidate for the next; −1: none
	lastDV  vclock.DV
	chain   int          // delta records since the last full one
	diffBuf vclock.Delta // reused DiffAppend buffer

	// spareEnt/spareDV hold the vector copies of the records reaped last,
	// for the next Save to copy into: a collector that deletes as fast as
	// it saves (RDT-LGC, Section 4.5) then saves without allocating. Fixed
	// arrays, so keeping a spare costs nothing and the lists cannot grow;
	// Load clones, so no caller can hold a recycled buffer.
	spareEnt  [maxSpare]vclock.Delta
	spareDV   [maxSpare]vclock.DV
	nSpareEnt int
	nSpareDV  int

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

// memRec is one stored checkpoint: full (dv set) or delta-encoded against
// the record at base (entries set). A dead record has been Deleted by the
// collector but is still referenced by a live delta's chain; it is
// invisible to the Store interface and reaped once its dependent goes.
// Deferred reaping keeps Delete O(1) — promoting the dependent would
// reconstruct a size-n vector on every collection — at the price of at
// most fullEvery−1 dead records per chain, each O(changed) small. The log
// store keeps a dead record's bytes as a chain base the same way.
type memRec struct {
	process int
	dv      vclock.DV // nil for delta records
	base    int
	entries vclock.Delta
	delta   bool
	dead    bool
	state   []byte
}

// maxSpare bounds each of MemStore's spare lists: a burst of collections
// larger than this drops the rest to the garbage collector.
const maxSpare = 16

// reap removes a record nothing references any more and keeps its vector
// copy for the next Save.
func (s *MemStore) reap(index int, rec memRec) {
	delete(s.byIdx, index)
	if cap(rec.entries) > 0 && s.nSpareEnt < maxSpare {
		s.spareEnt[s.nSpareEnt] = rec.entries[:0]
		s.nSpareEnt++
	}
	if len(rec.dv) > 0 && s.nSpareDV < maxSpare {
		s.spareDV[s.nSpareDV] = rec.dv
		s.nSpareDV++
	}
}

// insertSorted adds idx to an ascending index slice. Checkpoint indices
// almost always arrive in increasing order, so the common case is a plain
// append; rollback re-saves after a recovery session take the binary-
// search path.
func insertSorted(s []int, idx int) []int {
	if n := len(s); n == 0 || idx > s[n-1] {
		return append(s, idx)
	}
	at, _ := slices.BinarySearch(s, idx)
	return slices.Insert(s, at, idx)
}

// removeSorted deletes idx from an ascending index slice.
func removeSorted(s []int, idx int) []int {
	at, ok := slices.BinarySearch(s, idx)
	if !ok {
		return s
	}
	return slices.Delete(s, at, at+1)
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		byIdx:   make(map[int]memRec),
		child:   make(map[int]int),
		lastIdx: -1,
	}
}

// Save implements Store. Between full records only the changed entries are
// retained, so the per-checkpoint copy is O(changed), not O(n).
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
	asDelta := s.lastIdx >= 0 && s.chain < fullEvery-1 && len(s.lastDV) == len(cp.DV)
	if asDelta {
		// The base must be present (dead is fine — its bytes survive until
		// the chain drains) and chainable (one dependent per record).
		if _, ok := s.byIdx[s.lastIdx]; !ok {
			asDelta = false
		} else if _, ok := s.child[s.lastIdx]; ok {
			asDelta = false
		}
	}
	rec := memRec{process: cp.Process, state: append([]byte(nil), cp.State...)}
	if asDelta {
		if cap(s.diffBuf) < len(cp.DV) {
			// One warm-up allocation instead of a doubling ladder; a diff
			// can hold at most the whole vector.
			s.diffBuf = make(vclock.Delta, 0, len(cp.DV))
		}
		s.diffBuf = vclock.DiffAppend(s.lastDV, cp.DV, s.diffBuf[:0])
		if 2*len(s.diffBuf)+1 >= len(cp.DV) {
			asDelta = false // the delta would not be smaller than the vector
		} else {
			rec.delta = true
			rec.base = s.lastIdx
			var buf vclock.Delta
			if s.nSpareEnt > 0 {
				s.nSpareEnt--
				buf = s.spareEnt[s.nSpareEnt]
			}
			rec.entries = append(buf, s.diffBuf...)
		}
	}
	if !asDelta {
		if k := s.nSpareDV - 1; k >= 0 && len(s.spareDV[k]) == len(cp.DV) {
			s.nSpareDV = k
			rec.dv = s.spareDV[k]
			rec.dv.CopyFrom(cp.DV)
		} else {
			rec.dv = cp.DV.Clone()
		}
		s.chain = 0
	} else {
		s.child[s.lastIdx] = cp.Index
		s.chain++
	}
	s.byIdx[cp.Index] = rec
	s.lastIdx = cp.Index
	if len(s.lastDV) == len(cp.DV) {
		s.lastDV.CopyFrom(cp.DV)
	} else {
		s.lastDV = cp.DV.Clone()
	}
	s.sorted = insertSorted(s.sorted, cp.Index)
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
	s.obs.DeltaChain.Observe(int64(s.chain))
	if s.obs.SaveNs != nil {
		s.obs.SaveNs.Observe(time.Since(t0).Nanoseconds())
	}
	return nil
}

// Delete implements Store in O(1) amortized: a record some live delta
// still chains through is only marked dead; records nothing depends on are
// removed at once, together with any dead chain prefix this unpins.
func (s *MemStore) Delete(index int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byIdx[index]
	if !ok || rec.dead {
		return fmt.Errorf("storage: delete of absent checkpoint %d", index)
	}
	if s.lastIdx == index {
		s.lastIdx = -1 // the next save opens a fresh chain
	}
	s.sorted = removeSorted(s.sorted, index)
	s.stats.Collected++
	s.stats.Live--
	s.stats.LiveBytes -= len(rec.state)
	s.obs.Deletes.Inc()
	s.obs.Retained.Add(-1)
	s.flight.Record(obs.Event{Kind: obs.EvCollect, P: s.proc, Msg: index})
	if _, ok := s.child[index]; ok {
		rec.dead = true // the dependent still resolves through this record
		s.byIdx[index] = rec
		return nil
	}
	// Nothing depends on this record: reap it, and walk the base chain
	// reaping dead records this was the last dependent of.
	for {
		s.reap(index, rec)
		if !rec.delta {
			return nil
		}
		base := rec.base
		if s.child[base] == index {
			delete(s.child, base)
		}
		rec, ok = s.byIdx[base]
		if !ok || !rec.dead {
			return nil
		}
		if _, hasChild := s.child[base]; hasChild {
			return nil
		}
		s.obs.Reaps.Inc() // a dead chain base drains on the next iteration
		index = base
	}
}

// Load implements Store, resolving delta records through their chain (at
// most fullEvery−1 hops). Dead records are absent for the interface but
// still serve as chain bases.
func (s *MemStore) Load(index int) (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.byIdx[index]; !ok || rec.dead {
		return Checkpoint{}, fmt.Errorf("storage: load of absent checkpoint %d", index)
	}
	var t0 time.Time
	if s.obs.LoadNs != nil {
		t0 = time.Now()
	}
	cp, err := s.load(index)
	if err == nil && s.obs.LoadNs != nil {
		s.obs.LoadNs.Observe(time.Since(t0).Nanoseconds())
	}
	return cp, err
}

func (s *MemStore) load(index int) (Checkpoint, error) {
	rec, ok := s.byIdx[index]
	if !ok {
		return Checkpoint{}, fmt.Errorf("storage: load of absent checkpoint %d", index)
	}
	cp := Checkpoint{
		Process: rec.process,
		Index:   index,
		State:   append([]byte(nil), rec.state...),
	}
	if !rec.delta {
		cp.DV = rec.dv.Clone()
		return cp, nil
	}
	base, err := s.load(rec.base)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("storage: checkpoint %d: resolve delta base: %w", index, err)
	}
	cp.DV = base.DV
	if err := rec.entries.Patch(cp.DV); err != nil {
		return Checkpoint{}, fmt.Errorf("storage: corrupt checkpoint %d: %w", index, err)
	}
	return cp, nil
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
