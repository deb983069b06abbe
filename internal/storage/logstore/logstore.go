// Package logstore implements storage.Store as an append-only log in
// generations with group commit: the durable store of the two (MemStore, in
// package storage, a plain map, is the oracle it is tested against). Every
// mutation — checkpoint saves and deletion tombstones alike — is appended to
// the current generation's file, and a single committer goroutine folds all
// mutations staged while the previous write+sync was in flight into the
// next one. Under concurrent writers the sync cost amortizes across the
// batch; a lone writer still pays exactly one write+sync per save.
//
// On-disk layout. A directory holds one file per generation, gen-%08d.log
// (two for the moment between a switch's first batch and the removal of the
// generation it replaces). A generation file starts with a 16-byte header
// (magic, generation number — the number is checked against the filename so
// a misplaced file cannot impersonate another generation). After the
// header, a generation is a sequence of batches, each the unit of one group
// commit:
//
//	u32 batchMagic | u32 recordCount | u32 payloadLen |
//	u32 payloadCRC32 | u32 headerCRC32(first 16 bytes) | payload
//
// The payload is recordCount frames of: u32 bodyLen | 1 kind byte | body.
// A checkpoint frame's body is one whole checkpoint in package storage's
// record format (storage.AppendRecord, read back by storage.DecodeRecord),
// so every record decodes on its own. A tombstone frame's body is the
// deleted checkpoint index as a u64.
//
// Generations. A generation's first batch opens with the whole live set at
// the moment the generation was opened; the rest of it and every later batch
// append saves and tombstones, so a generation holds everything a reopen
// needs. Under RDT-LGC a process keeps at most n checkpoints, so the live set
// is small: when a save would take the generation past max(genFloor, 4 ×
// live bytes), it opens generation g+1 first. The committer writes g+1's
// first batch, syncs the file and the directory, and only then closes and
// removes g. Replay takes the newest generation whose first batch is
// complete and removes the others. A tombstone lives in the generation of
// the record it kills — the next first batch leaves that record out — so no
// tombstone outlives its generation, and the index keeps no entry for a
// deleted checkpoint.
//
// The two checksums split the failure modes: a batch whose declared extent
// runs past the end of the newest generation is a torn tail — a crash hit
// mid-write before the sync, so the batch was never acknowledged and replay
// truncates it loudly-but-successfully at the last durable batch boundary.
// A batch whose bytes are all present but whose header or payload CRC
// fails is not a crash artifact, it is bit rot in acknowledged data, and
// replay refuses the store with storage.ErrCorrupt. The header CRC exists
// precisely so a flipped bit in payloadLen cannot make acknowledged data
// masquerade as a torn tail.
//
// Durability contract: Save returns only after the batch holding its record
// has been written and synced (or after the store has failed, loudly). A
// caller that registered a NotifyDurable callback has taken that wait on
// itself: its Save stages the record under the next stage sequence number and
// returns, and the committer reports the number to the callback once the
// batch is durable. The record, the log and every view of it are the same
// either way; only who waits differs.
// Delete stages its tombstone and returns: the paper's collector is
// asynchronous, so eliminating an obsolete checkpoint is never worth a flush
// of its own. The tombstone rides the next batch somebody waits for — the
// next Save or Close — and because batches commit in staging order it is
// never durable before the Save it follows. A crash before that batch
// resurrects the checkpoint; the Rollback every restart runs (Algorithm 3)
// rebuilds UC from whatever survived and collects it again. Deleting the
// most recent checkpoint is the exception: only a rollback does that, a
// restart resumes from the most recent checkpoint it finds, and a
// rolled-back checkpoint that came back would be taken for the process's
// last stable state. That Delete waits for its batch — which, the log being
// FIFO, also settles every tombstone staged before it, so a rollback that
// discards k checkpoints in ascending order pays one flush.
// In-memory index state is applied at staging time under the store
// lock, so the Store view is sequentially consistent for callers even while
// batches are in flight; Load serves not-yet-durable records from the
// staging buffer. Deletion frees the index at once — a later Save may take
// it again, as in MemStore.
//
// Reading a record. A durable record is read with one pread through a
// read-only descriptor the store keeps on the current generation: opened,
// under the store lock, by the first read that needs it, and closed at a
// switch and at Close — so a Load is one read and one decode, with no
// open(2) or close(2). After a switch every live record is served from the
// new first batch's staging copy until it is durable, so nothing reads the
// old generation again and its blocks go with its removal. A LoadDV is the
// same read cut short before the state bytes: a rollback and the recovery
// line compare vectors, and only the checkpoint a process restores from is
// read whole. The committer's write handle is a separate file, because the
// committer opens and closes it without the store lock. No decoded record is
// cached: every read still decodes the bytes on disk, so the record parser
// checks what is on the device at each Load and LoadDV. A LoadDV decodes
// into the caller's vector and, once the read buffer has grown to the
// largest record, allocates nothing. A Load copies the record out of the
// shared read buffer into memory the caller owns: the memory of the
// checkpoint Release last handed back, if any, so a restart that loads,
// restores and releases allocates nothing here once warm.
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

const (
	genMagic   = uint64(0x5244544c4f473447) // "RDTLOG4G"
	batchMagic = uint32(0xb47c4d17)

	genHdrLen   = 16
	batchHdrLen = 20
	frameHdrLen = 5 // u32 body length + kind byte

	kindCheckpoint = byte(0)
	kindTombstone  = byte(1)

	// maxPayload caps a declared batch payload so a corrupt header cannot
	// demand an absurd allocation during replay.
	maxPayload = 1 << 30

	// maxStaged bounds the bytes staged but not yet durable; writers block
	// (backpressure) rather than grow the buffer without bound.
	maxStaged = 1 << 20

	// genFloor is the size below which a generation is never switched,
	// however small the live set: 4 MiB, the segment size of the log before
	// generations, so a store switches about as often as it compacted.
	genFloor = 4 << 20
)

// Options tunes a log store. The zero value gives production defaults; the
// hooks exist for the torture harness and tests.
type Options struct {
	// Sync flushes a generation file, or the store's directory after a new
	// generation's file is created, to stable storage; nil means
	// (*os.File).Sync. A new generation's two flushes run at once, so Sync
	// must be safe for concurrent use. The torture harness injects failures
	// here.
	Sync func(*os.File) error
	// OnCommit, if set, is called with the extent of every durable batch,
	// before the operations it carried are acknowledged. The torture harness
	// records these boundaries as injection points.
	OnCommit func(Commit)
}

// Commit describes one durable batch: the half-open byte range
// [Start, End) it occupies in File — the name of its generation's file in
// the store's directory — and the records it carried.
type Commit struct {
	File    string
	Start   int64
	End     int64
	Records int
}

func (o Options) withDefaults() Options {
	if o.Sync == nil {
		o.Sync = (*os.File).Sync
	}
	return o
}

// Factory is the per-process NewStore hook of the engines (internal/sim,
// internal/runtime, internal/chaos) for log stores under dir, with default
// options: process i opens <dir>/p<i>.
func Factory(dir string) func(self int) (storage.Store, error) {
	return func(self int) (storage.Store, error) {
		s, err := Open(filepath.Join(dir, fmt.Sprintf("p%d", self)), Options{})
		if err != nil {
			return nil, err // not a typed nil inside the interface
		}
		return s, nil
	}
}

// recInfo is the in-memory index entry for one live checkpoint record:
// where its body bytes lie in the current generation. The index holds
// entries by value, so a save costs the heap nothing: every site that
// changes an entry writes it back.
type recInfo struct {
	off      int64 // offset of the record body in the current generation
	size     int   // body length
	stateLen int

	// pending holds the body bytes until the batch carrying them is
	// durable, so Load works on staged-but-unsynced records; pendingIn
	// identifies that batch so that the commit of an older copy — the one a
	// switch rewrote — cannot clear it.
	pending   []byte
	pendingIn *batch
}

// batch is one group commit being assembled or awaiting the committer. buf
// holds the 20-byte header placeholder followed by the payload. waiters
// counts the callers that hold the batch (holdLocked) until it is done —
// durable, or failed with err; stage is the highest stage sequence number of
// the saves a NotifyDurable caller staged here (0: none). An open batch with
// neither carries only tombstones and stays open. Batches and their buffers
// are recycled through LogStore.free once done and released.
type batch struct {
	gen     int
	off     int64
	first   bool // opens generation gen with the live set: the committer creates the file
	buf     []byte
	records int
	saved   []int // checkpoint indices staged here, for pending cleanup
	waiters int
	stage   uint64
	done    bool
	err     error
}

// wanted reports whether somebody needs b durable: a batch worth a flush.
func (b *batch) wanted() bool { return b.waiters > 0 || b.stage > 0 }

// LogStore is a group-commit log in generations implementing storage.Store.
// Use Open; the zero value is not usable. Safe for concurrent use.
type LogStore struct {
	mu     sync.Mutex
	commit sync.Cond // committer waits here for staged batches
	flow   sync.Cond // writers wait here under maxStaged backpressure
	synced sync.Cond // batch holders wait here for their batch to be done
	dir    string
	opt    Options

	recs   map[int]recInfo
	sorted []int // live indices, ascending
	live   int64 // body bytes of the live records
	stats  storage.Stats

	enc  []byte // reused record-encode buffer
	rbuf []byte // reused record-read buffer; Load copies out of it
	// spareDV and spareState are the memory of a checkpoint Release handed
	// back, for the next Load to decode into: a restart's load and release
	// then copy no snapshot out. One slot, taken whole by a Load, so two
	// loaders never share it.
	spareDV    vclock.DV
	spareState []byte

	gen    int      // current generation; −1 before the first record
	genOff int64    // projected end of the current generation
	floor  int64    // genFloor; tests lower it to switch within a few records
	rf     *os.File // read descriptor on the current generation, opened by the first read

	queue       []*batch // staged batches, FIFO
	cur         *batch   // open batch accepting records (tail of queue)
	free        []*batch // committed batches awaiting reuse
	stagedBytes int

	tornTails int
	failed    error // sticky: a commit failed; every later op returns this
	closed    bool

	// notify is the NotifyDurable callback (nil: Save waits for its batch
	// itself); staged numbers the saves staged for it and durable is the
	// highest number reported back. Only the committer calls notify.
	notify  func(seq uint64, err error)
	staged  uint64
	durable uint64

	// f is the file of the generation being written, owned by the committer
	// goroutine.
	f             *os.File
	committerDone chan struct{}

	obs    obs.StoreMetrics
	flight *obs.Recorder
	proc   int
}

var _ storage.Store = (*LogStore)(nil)
var _ obs.Instrumentable = (*LogStore)(nil)

func genName(gen int) string { return fmt.Sprintf("gen-%08d.log", gen) }

func genPath(dir string, gen int) string { return filepath.Join(dir, genName(gen)) }

// Open opens (or creates) a log store rooted at dir, replaying the newest
// generation whose first batch is complete to rebuild the index: every
// batch's checksums are verified, a torn tail is truncated at the last
// durable batch boundary (counted — see TornTails), the other generation
// files are removed, and any other damage fails the open with
// storage.ErrCorrupt. The returned store has a running committer goroutine;
// Close stops it.
func Open(dir string, opt Options) (*LogStore, error) {
	s := &LogStore{
		dir:           dir,
		opt:           opt.withDefaults(),
		recs:          make(map[int]recInfo),
		gen:           -1,
		floor:         genFloor,
		committerDone: make(chan struct{}),
	}
	s.commit.L = &s.mu
	s.flow.L = &s.mu
	s.synced.L = &s.mu
	if err := s.replay(); err != nil {
		return nil, err
	}
	go s.committer()
	return s, nil
}

// SetObs implements obs.Instrumentable; see MemStore.SetObs. The torn-tail
// count of the opening replay is credited to the counter at attach time.
func (s *LogStore) SetObs(m obs.StoreMetrics, rec *obs.Recorder, process int) {
	s.mu.Lock()
	s.obs, s.flight, s.proc = m, rec, process
	if s.tornTails > 0 {
		m.TornTails.Add(uint64(s.tornTails))
	}
	s.updateLiveRatioLocked()
	s.mu.Unlock()
}

// TornTails reports how many torn tails the opening replay truncated.
func (s *LogStore) TornTails() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tornTails
}

var errClosed = errors.New("logstore: store is closed")

func (s *LogStore) usableLocked() error {
	if s.failed != nil {
		return s.failed
	}
	if s.closed {
		return errClosed
	}
	return nil
}

// failLocked marks the store broken and releases every waiter loudly.
func (s *LogStore) failLocked(err error) {
	if s.failed != nil {
		return
	}
	s.failed = fmt.Errorf("logstore: commit failed: %w", err)
	for _, b := range s.queue {
		b.done, b.err = true, s.failed
	}
	s.queue = nil
	s.cur = nil
	s.synced.Broadcast()
	s.flow.Broadcast()
	s.commit.Broadcast()
}

// holdLocked registers the caller as a waiter of b and wakes the committer:
// a held batch is one worth a flush. Every hold is paired with one
// awaitLocked.
func (s *LogStore) holdLocked(b *batch) {
	s.commit.Signal()
	b.waiters++
}

// awaitLocked blocks until held batch b is durable (nil) or the store has
// failed (the sticky error), then releases the hold.
func (s *LogStore) awaitLocked(b *batch) error {
	for !b.done {
		s.synced.Wait()
	}
	err := b.err
	b.waiters--
	s.recycleLocked(b)
	return err
}

// recycleLocked returns a committed batch nobody holds to the freelist, so
// the next commit reuses its struct and its buffer. A failed batch is left
// to the collector: its buffer still backs the pending bodies Load serves.
func (s *LogStore) recycleLocked(b *batch) {
	const keep = 4 // staged batches in flight rarely exceed the open one and the one being flushed
	if b.waiters > 0 || b.err != nil || len(s.free) == keep || cap(b.buf) > maxStaged {
		return
	}
	*b = batch{buf: b.buf[:0], saved: b.saved[:0]}
	s.free = append(s.free, b)
}

// NotifyDurable implements Store.
func (s *LogStore) NotifyDurable(fn func(seq uint64, err error)) {
	s.mu.Lock()
	s.notify = fn
	s.mu.Unlock()
}

// Staged implements Store.
func (s *LogStore) Staged() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.staged
}

// Save implements Store: the record is staged into the open batch and the
// call returns once that batch is durable — or, with a NotifyDurable callback
// registered, at once, the batch's durability being reported there. Index
// state is applied at staging time, so concurrent callers observe the save
// immediately while its durability is still being bought.
func (s *LogStore) Save(cp storage.Checkpoint) error {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	var t0 time.Time
	saveNs := s.obs.SaveNs
	if saveNs != nil {
		t0 = time.Now()
	}
	for s.stagedBytes > maxStaged && s.failed == nil && !s.closed {
		s.flow.Wait()
	}
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if _, had := s.recs[cp.Index]; had {
		s.mu.Unlock()
		return fmt.Errorf("storage: duplicate save of checkpoint %d of p%d", cp.Index, cp.Process)
	}
	b, err := s.stageSaveLocked(cp)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if s.notify != nil {
		s.commit.Signal()
		s.staged++
		b.stage = s.staged
		s.obs.DurableLag.Add(1)
		s.mu.Unlock()
		return nil
	}
	s.holdLocked(b)
	err = s.awaitLocked(b)
	s.mu.Unlock()
	if err == nil && saveNs != nil {
		saveNs.Observe(time.Since(t0).Nanoseconds())
	}
	return err
}

// stageSaveLocked encodes cp, stages the frame, and applies index state. The
// caller makes the returned batch wanted: it holds and awaits it, or gives
// it a stage number.
func (s *LogStore) stageSaveLocked(cp storage.Checkpoint) (*batch, error) {
	s.enc = storage.AppendRecord(s.enc[:0], cp)
	if err := s.roomLocked(frameHdrLen + len(s.enc)); err != nil {
		return nil, err
	}
	b, bodyOff, body := s.appendFrameLocked(kindCheckpoint, s.enc)
	b.saved = append(b.saved, cp.Index)
	s.recs[cp.Index] = recInfo{off: bodyOff, size: len(body), stateLen: len(cp.State), pending: body, pendingIn: b}
	s.sorted = storage.InsertSorted(s.sorted, cp.Index)
	s.live += int64(len(body))
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
	return b, nil
}

// roomLocked readies the open batch for a checkpoint frame of need bytes,
// switching to a new generation first when there is none yet or when the
// frame would take the current one past max(floor, 4 × live bytes).
func (s *LogStore) roomLocked(need int) error {
	if s.gen < 0 || s.genOff+int64(need) > max(s.floor, 4*s.live) {
		if err := s.switchLocked(); err != nil {
			return err
		}
	}
	s.openLocked()
	return nil
}

// switchLocked opens generation g+1 with the live set at the head of its
// first batch, which stays open: the save that called for the switch, and
// what is staged until the committer takes the batch, ride it. Each live
// record's bytes are read — from g, or from its staging copy — and staged
// again once their prefix passes storage.CheckPrefix against the index's
// state length: the structural checks a Load makes, with no vector built,
// so a record that rotted on the device fails the switch loudly instead of
// moving under a fresh checksum. The state bytes are opaque to both. The
// open batch of g is sealed first, so it commits before the new generation
// exists.
func (s *LogStore) switchLocked() error {
	s.cur = nil
	first := s.startLocked(s.gen+1, genHdrLen)
	first.first = true
	for _, idx := range s.sorted {
		ri := s.recs[idx]
		body, err := s.bodyLocked(ri, ri.size)
		if err == nil {
			err = storage.CheckPrefix(body[:ri.size-ri.stateLen], ri.stateLen)
		}
		if err != nil {
			s.failLocked(fmt.Errorf("switch to generation %d: checkpoint %d: %w", first.gen, idx, err))
			return s.failed
		}
		_, off, body := s.appendFrameLocked(kindCheckpoint, body)
		first.saved = append(first.saved, idx)
		ri.off, ri.pending, ri.pendingIn = off, body, first
		s.recs[idx] = ri
	}
	// Every live record is now served from the first batch until it is
	// durable in the new generation: nothing reads g again.
	s.closeReaderLocked()
	s.gen = first.gen
	return nil
}

// openLocked returns the open batch, starting one at the current
// generation's projected end if there is none.
func (s *LogStore) openLocked() *batch {
	if s.cur == nil {
		s.startLocked(s.gen, s.genOff)
	}
	return s.cur
}

// startLocked queues a new open batch at offset off of generation gen.
func (s *LogStore) startLocked(gen int, off int64) *batch {
	var b *batch
	if k := len(s.free); k > 0 {
		b, s.free = s.free[k-1], s.free[:k-1]
	} else {
		b = &batch{}
	}
	b.gen, b.off = gen, off
	b.buf = append(b.buf, make([]byte, batchHdrLen)...) // header placeholder
	s.cur = b
	s.queue = append(s.queue, b)
	s.genOff = off + batchHdrLen
	s.stagedBytes += batchHdrLen
	return b
}

// appendFrameLocked appends one frame to the open batch and returns the
// batch, the generation offset of the body, and the staged body bytes
// (stable: later appends never rewrite an already-staged region).
func (s *LogStore) appendFrameLocked(kind byte, body []byte) (*batch, int64, []byte) {
	b := s.cur
	bodyOff := b.off + int64(len(b.buf)) + frameHdrLen
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(body)))
	b.buf = append(b.buf, kind)
	b.buf = append(b.buf, body...)
	b.records++
	n := frameHdrLen + len(body)
	s.genOff += int64(n)
	s.stagedBytes += n
	return b, bodyOff, b.buf[len(b.buf)-len(body):]
}

// Delete implements Store: the index entry goes at once — every later call
// sees the checkpoint gone — and its tombstone is staged in the current
// generation to ride the next batch somebody waits for; only the delete of
// the most recent checkpoint waits for that batch itself (see the package
// comment for the durability contract).
func (s *LogStore) Delete(index int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	ri, ok := s.recs[index]
	if !ok {
		return fmt.Errorf("storage: delete of absent checkpoint %d", index)
	}
	newest := index == s.sorted[len(s.sorted)-1]
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], uint64(index))
	s.openLocked()
	b, _, _ := s.appendFrameLocked(kindTombstone, body[:])
	delete(s.recs, index)
	s.sorted = storage.RemoveSorted(s.sorted, index)
	s.live -= int64(ri.size)
	s.stats.Collected++
	s.stats.Live--
	s.stats.LiveBytes -= ri.stateLen
	s.obs.Deletes.Inc()
	s.obs.Retained.Add(-1)
	s.flight.Record(obs.Event{Kind: obs.EvCollect, P: s.proc, Msg: index})
	if newest {
		s.holdLocked(b)
		return s.awaitLocked(b)
	}
	if s.stagedBytes > maxStaged {
		s.commit.Signal()
	}
	return nil
}

// Load implements Store: one read and one decode. Staged-but-unsynced
// records are served from the staging buffer; durable ones are read back
// from the current generation. The checkpoint is copied out of the read
// buffer, into the memory the last Release handed back when there is some,
// else into new slices. A failed store still serves what it holds; a closed
// one serves nothing.
func (s *LogStore) Load(index int) (storage.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.readableLocked(index); err != nil {
		return storage.Checkpoint{}, err
	}
	var t0 time.Time
	if s.obs.LoadNs != nil {
		t0 = time.Now()
	}
	ri := s.recs[index]
	body, err := s.bodyLocked(ri, ri.size)
	if err != nil {
		return storage.Checkpoint{}, fmt.Errorf("storage: read checkpoint %d: %w", index, err)
	}
	cp, err := storage.DecodeRecordInto(s.spareDV, body)
	if err != nil {
		return storage.Checkpoint{}, fmt.Errorf("storage: corrupt checkpoint %d: %w", index, err)
	}
	cp.State = append(s.spareState[:0], cp.State...)
	s.spareDV, s.spareState = nil, nil
	if s.obs.LoadNs != nil {
		s.obs.LoadNs.Observe(time.Since(t0).Nanoseconds())
	}
	return cp, nil
}

// Release implements Store: the checkpoint's memory fills the spare slot if
// it is empty, and is dropped otherwise.
func (s *LogStore) Release(cp storage.Checkpoint) {
	s.mu.Lock()
	if s.spareDV == nil && s.spareState == nil {
		s.spareDV, s.spareState = cp.DV, cp.State
	}
	s.mu.Unlock()
}

// LoadDV implements Store: Load's one read cut to the record's prefix —
// every word before the state — decoded into dst by
// storage.DecodeVectorInto, whose state-length word must match the one this
// index recorded. It serves and refuses what Load does.
func (s *LogStore) LoadDV(index int, dst vclock.DV) (vclock.DV, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.readableLocked(index); err != nil {
		return nil, err
	}
	ri := s.recs[index]
	prefix, err := s.bodyLocked(ri, ri.size-ri.stateLen)
	if err != nil {
		return nil, fmt.Errorf("storage: read checkpoint %d: %w", index, err)
	}
	dv, err := storage.DecodeVectorInto(dst, prefix, ri.stateLen)
	if err != nil {
		return nil, fmt.Errorf("storage: corrupt checkpoint %d: %w", index, err)
	}
	return dv, nil
}

// readableLocked reports why index cannot be read: the store is closed, or
// holds no live record of it.
func (s *LogStore) readableLocked(index int) error {
	if s.closed {
		return errClosed
	}
	if _, ok := s.recs[index]; !ok {
		return fmt.Errorf("storage: load of absent checkpoint %d", index)
	}
	return nil
}

// bodyLocked returns the first n bytes of a record's body: from the staging
// copy while its batch is in flight, by one read through the current
// generation's kept descriptor once durable. The read lands in s.rbuf, so
// the bytes are valid only until the next read.
func (s *LogStore) bodyLocked(ri recInfo, n int) ([]byte, error) {
	if ri.pending != nil {
		return ri.pending[:n], nil
	}
	if s.rf == nil {
		f, err := os.Open(genPath(s.dir, s.gen))
		if err != nil {
			return nil, err
		}
		s.rf = f
	}
	if cap(s.rbuf) < n {
		s.rbuf = make([]byte, n)
	}
	body := s.rbuf[:n]
	if _, err := s.rf.ReadAt(body, ri.off); err != nil {
		return nil, err
	}
	return body, nil
}

// closeReaderLocked closes the read descriptor, if one was opened. Nothing
// was written through it, so there is no error worth reporting.
func (s *LogStore) closeReaderLocked() {
	if s.rf != nil {
		s.rf.Close()
		s.rf = nil
	}
}

// Indices implements Store.
func (s *LogStore) Indices() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sorted...)
}

// Stats implements Store.
func (s *LogStore) Stats() storage.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close seals the store: staged batches — the tombstones no Save has carried
// yet among them — are committed (and every staged save reported to the
// NotifyDurable callback), the committer exits, and the write handle and the
// read descriptor close. Later operations fail; Close is idempotent.
func (s *LogStore) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.commit.Broadcast()
	s.flow.Broadcast()
	s.mu.Unlock()
	<-s.committerDone
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeReaderLocked() // no reader is left: Load refuses a closed store
	if already {
		return nil
	}
	return s.failed
}

// committer is the single goroutine that buys durability: it dequeues
// batches FIFO, finalizes their header (counts and checksums), performs one
// write and one sync each, then releases the callers blocked on the batch and
// reports its stage number, if it has one, to the NotifyDurable callback —
// with the store lock released, so the callback may take its own locks while
// writers stage, and block in back-pressure, under theirs. Group commit
// emerges from this seriality — every record staged while a sync is in flight
// shares the next one.
func (s *LogStore) committer() {
	defer close(s.committerDone)
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closed && s.failed == nil {
			s.commit.Wait()
		}
		if s.failed != nil || (len(s.queue) == 0 && s.closed) {
			break
		}
		b := s.queue[0]
		if b == s.cur && !b.wanted() && !s.closed && s.stagedBytes <= maxStaged {
			// The open batch holds only tombstones: leave it open for the
			// next Save to share its flush. Close commits it as it is, and
			// so does a pile of tombstones past the staging bound.
			s.commit.Wait()
			continue
		}
		// Shift down rather than reslice: the queue is a handful of entries,
		// and a resliced head would make every append reallocate.
		s.queue = s.queue[:copy(s.queue, s.queue[1:])]
		if b == s.cur {
			s.cur = nil
		}
		finalizeBatch(b.buf, b.records)
		commitNs := s.obs.CommitNs
		s.mu.Unlock()

		var t0 time.Time
		if commitNs != nil {
			t0 = time.Now()
		}
		err := s.writeBatch(b)
		if commitNs != nil {
			commitNs.Observe(time.Since(t0).Nanoseconds())
		}
		if err == nil && s.opt.OnCommit != nil {
			// Before the waiters are released: every acknowledged operation
			// has had its commit reported. The dequeued batch is ours alone.
			s.opt.OnCommit(Commit{File: genName(b.gen), Start: b.off, End: b.off + int64(len(b.buf)), Records: b.records})
		}

		s.mu.Lock()
		if err != nil {
			// b left the queue before failLocked could sweep it.
			s.failLocked(err)
			b.done, b.err = true, s.failed
			s.synced.Broadcast()
			continue
		}
		if b.first && b.gen > 0 {
			s.obs.Compactions.Inc() // a switch: generation gen−1 is gone
		}
		s.stagedBytes -= len(b.buf)
		for _, idx := range b.saved {
			if ri, ok := s.recs[idx]; ok && ri.pendingIn == b {
				ri.pending, ri.pendingIn = nil, nil
				s.recs[idx] = ri
			}
		}
		s.obs.BatchRecords.Observe(int64(b.records))
		s.updateLiveRatioLocked()
		stage := b.stage
		b.done = true
		s.synced.Broadcast()
		s.recycleLocked(b)
		s.flow.Broadcast()
		if stage > 0 {
			s.obs.DurableLag.Add(-int64(stage - s.durable))
			s.durable = stage
			s.mu.Unlock()
			s.notify(stage, nil)
			s.mu.Lock()
		}
	}
	lost, failed := s.staged, s.failed
	pending := lost > s.durable
	s.mu.Unlock()
	if failed != nil && pending {
		s.notify(lost, failed) // the saves staged past durable never will be
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// finalizeBatch fills the header placeholder: magic, record count, payload
// length, payload CRC, and the header CRC over the first 16 bytes.
func finalizeBatch(buf []byte, records int) {
	payload := buf[batchHdrLen:]
	binary.LittleEndian.PutUint32(buf[0:], batchMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(records))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[0:16]))
}

// writeBatch writes one finalized batch at its precomputed offset and syncs
// the generation file. Only the committer calls this; it owns s.f. A first
// batch creates its generation's file, and once the file and the directory
// are synced — g+1 is durable and named — closes and removes g.
func (s *LogStore) writeBatch(b *batch) error {
	if !b.first {
		if s.f == nil { // the first append after Open
			f, err := os.OpenFile(genPath(s.dir, b.gen), os.O_RDWR, 0)
			if err != nil {
				return err
			}
			s.f = f
		}
		if _, err := s.f.WriteAt(b.buf, b.off); err != nil {
			return err
		}
		return s.opt.Sync(s.f)
	}
	f, err := os.OpenFile(genPath(s.dir, b.gen), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	var hdr [genHdrLen]byte
	binary.LittleEndian.PutUint64(hdr[0:], genMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(b.gen))
	if err := s.writeFirst(f, hdr[:], b); err != nil {
		f.Close()
		return err
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f = f
	if b.gen > 0 {
		// Garbage whether or not the removal succeeds or survives a crash:
		// replay takes the newest generation whose first batch is complete,
		// and removes the others.
		_ = os.Remove(genPath(s.dir, b.gen-1))
	}
	return nil
}

// writeFirst writes a new generation's header and first batch and syncs the
// file and, at the same time, the directory that f was created in, so that
// the generation is named on the device before anything acknowledged
// depends on it. The two flushes need no order between them, only to be
// done before g goes: a crash that keeps the name but not the batch leaves
// a torn first batch, one that loses the name leaves no file, and replay
// takes g either way. One after the other, they would cost every store's
// first Save, and every switch, a second flush's wait.
func (s *LogStore) writeFirst(f *os.File, hdr []byte, b *batch) error {
	named := make(chan error, 1)
	go func() { named <- s.syncDir() }()
	_, err := f.WriteAt(hdr, 0)
	if err == nil {
		_, err = f.WriteAt(b.buf, b.off)
	}
	if err == nil {
		err = s.opt.Sync(f)
	}
	if derr := <-named; err == nil {
		err = derr
	}
	return err
}

func (s *LogStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = s.opt.Sync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// updateLiveRatioLocked refreshes the live-ratio gauge: live record bytes
// over the current generation's bytes. Free when no gauge is attached.
func (s *LogStore) updateLiveRatioLocked() {
	if s.obs.LiveRatioPct != nil && s.genOff > 0 {
		s.obs.LiveRatioPct.Set(100 * s.live / s.genOff)
	}
}
