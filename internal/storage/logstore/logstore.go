// Package logstore implements storage.Store as a segmented append-only log
// with group commit: the durable store of the two (MemStore, in package
// storage, a plain map, is the oracle it is tested against). Every
// mutation — checkpoint saves and deletion tombstones alike — is appended to
// a fixed-size segment file, and a single committer goroutine folds all
// mutations staged while the previous write+sync was in flight into the
// next one. Under concurrent writers the sync cost amortizes across the
// batch; a lone writer still pays exactly one write+sync per save.
//
// On-disk layout. A directory holds segment files seg-%08d.log. A segment
// starts with a 16-byte header (magic, segment id — the id is checked
// against the filename so a misplaced file cannot impersonate another
// segment). After the header, segments are a sequence of batches, each the
// unit of one group commit:
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
// The two checksums split the failure modes: a batch whose declared extent
// runs past the end of the final segment is a torn tail — a crash hit
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
// next Save, a compaction rewrite, or Close — and because batches commit in
// staging order it is never durable before the Save it follows. A crash
// before that batch resurrects the checkpoint; the Rollback every restart
// runs (Algorithm 3) rebuilds UC from whatever survived and collects it
// again. Deleting the most recent checkpoint is the exception: only a
// rollback does that, a restart resumes from the most recent checkpoint it
// finds, and a rolled-back checkpoint that came back would be taken for the
// process's last stable state. That Delete waits for its batch — which, the
// log being FIFO, also settles every tombstone staged before it, so a
// rollback that discards k checkpoints in ascending order pays one flush.
// In-memory index state is applied at staging time under the store
// lock, so the Store view is sequentially consistent for callers even while
// batches are in flight; Load serves not-yet-durable records from the
// staging buffer.
//
// Deletion frees the index at once — a later Save may take it again, as in
// MemStore — but keeps the dead record's bookkeeping: the dead bytes stay in
// their segment until background compaction rewrites a segment whose live
// ratio has dropped below compactRatio — surviving records are re-appended
// at the tail, a tombstone is carried forward while any copy of its index —
// the one it killed, or an earlier one a re-save superseded — survives in
// another segment, and the victim file is deleted. No record refers to
// another, so any sealed segment is individually rewritable.
//
// Reading a record. A durable record is read with one pread through a
// read-only descriptor its segment keeps: opened, under the store lock, by
// the first read that needs it, and closed when compaction drops the segment
// and at Close — so a Load is one read and one decode, with no open(2) or
// close(2). A LoadDV is the same read cut short before the state bytes: a
// rollback and the recovery line compare vectors, and only the checkpoint a
// process restores from is read whole. Compaction closes the descriptor
// before it unlinks the file: an open descriptor keeps an unlinked file's
// blocks allocated, and nothing reads the victim once its live records are
// durable elsewhere. The committer's write handle is a separate file,
// because the committer opens and closes it without the store lock. No
// decoded record is cached: every read still decodes the bytes on disk, so
// the record parser checks what is on the device at each Load and LoadDV,
// as it did when each read opened the file.
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

const (
	segMagic   = uint64(0x5244544c4f473353) // "RDTLOG3S"
	batchMagic = uint32(0xb47c4d17)

	segHdrLen   = 16
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
	// compactRatio is the live-bytes/segment-bytes threshold below which a
	// sealed segment becomes a compaction victim.
	compactRatio = 0.45
)

// Options tunes a log store. The zero value gives production defaults; the
// hooks exist for the torture harness and tests.
type Options struct {
	// SegmentBytes is the roll threshold: a batch that would run past this
	// offset goes to a fresh segment instead (a single oversized record is
	// allowed to overflow a segment that holds nothing else). Default 4 MiB.
	SegmentBytes int64
	// NoCompact disables background compaction (the torture harness uses
	// this so injected damage maps 1:1 to staged operations).
	NoCompact bool
	// Sync flushes a segment file to stable storage; nil means
	// (*os.File).Sync. The torture harness injects failures here.
	Sync func(*os.File) error
	// OnCommit, if set, is called with the extent of every durable batch,
	// before the operations it carried are acknowledged. The torture harness
	// records these boundaries as injection points.
	OnCommit func(Commit)
}

// Commit describes one durable batch: the half-open byte range
// [Start, End) it occupies in segment Seg, and the records it carried.
type Commit struct {
	Seg     int
	Start   int64
	End     int64
	Records int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
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

// recInfo is the in-memory index entry for one checkpoint record: where its
// body bytes live and its deletion state. Dead entries persist until every
// segment holding a copy of their index is compacted away or a save takes
// their index again — they are what tells compaction which tombstones still
// matter.
type recInfo struct {
	seg      int
	off      int64 // offset of the record body (v2 bytes) in the segment
	size     int   // body length
	stateLen int
	dead     bool
	tombSeg  int // segment holding the tombstone; -1 while live

	// older lists the segments still holding earlier copies of the index,
	// which a later save superseded: a rolled-back checkpoint the index was
	// taken again over, or (after a replay) a copy compaction rewrote. Once
	// the index is dead, its newest tombstone is all that keeps them from
	// coming back, so compaction carries it while any of them survives. When
	// compaction drops a dead record's own segment first, seg takes one of
	// these over.
	older []int

	// pending holds the body bytes until the batch carrying them is
	// durable, so Load works on staged-but-unsynced records; pendingIn
	// identifies that batch so a supersede cannot be cleared by the old
	// version's commit.
	pending   []byte
	pendingIn *batch
}

// segInfo is per-segment accounting: projected size, live body bytes (the
// compaction trigger), and the number of staged batches still targeting it
// (a segment with in-flight writes is never a compaction victim). rf is the
// segment's read descriptor, opened by the first read that needs it and kept
// until compaction drops the segment or the store closes; it is separate
// from the committer's write handle, which lives outside the store lock.
type segInfo struct {
	size    int64
	live    int64
	batches int
	rf      *os.File
}

// closeReader closes the segment's read descriptor, if one was opened.
// Nothing was written through it, so there is no error worth reporting.
func (seg *segInfo) closeReader() {
	if seg.rf != nil {
		seg.rf.Close()
		seg.rf = nil
	}
}

// batch is one group commit being assembled or awaiting the committer. buf
// holds the 20-byte header placeholder followed by the payload. waiters
// counts the callers that hold the batch (holdLocked) until it is done —
// durable, or failed with err; stage is the highest stage sequence number of
// the saves a NotifyDurable caller staged here (0: none). An open batch with
// neither carries only tombstones and stays open. Batches and their buffers
// are recycled through LogStore.free once done and released.
type batch struct {
	seg     int
	off     int64
	newSeg  bool // the committer must create the segment file first
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

// LogStore is a segmented group-commit log implementing storage.Store. Use
// Open; the zero value is not usable. Safe for concurrent use.
type LogStore struct {
	mu     sync.Mutex
	commit sync.Cond // committer waits here for staged batches
	flow   sync.Cond // writers wait here under maxStaged backpressure
	synced sync.Cond // batch holders wait here for their batch to be done
	dir    string
	opt    Options

	recs   map[int]*recInfo
	sorted []int // live indices, ascending
	stats  storage.Stats

	enc  []byte // reused record-encode buffer
	rbuf []byte // reused record-read buffer; the decoders copy out of it

	segs    map[int]*segInfo
	projSeg int   // tail segment id; −1 before the first record
	projOff int64 // projected next write offset in projSeg

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

	// f is the open tail segment file, owned by the committer goroutine.
	f    *os.File
	fSeg int

	committerDone chan struct{}
	compactKick   chan struct{}
	compactorDone chan struct{}
	stop          chan struct{}
	closeOnce     sync.Once

	obs    obs.StoreMetrics
	flight *obs.Recorder
	proc   int
}

var _ storage.Store = (*LogStore)(nil)
var _ obs.Instrumentable = (*LogStore)(nil)

func segPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.log", id))
}

// Open opens (or creates) a log store rooted at dir, replaying existing
// segments to rebuild the index: every batch's checksums are verified, a
// torn tail in the final segment is truncated at the last durable batch
// boundary (counted — see TornTails), and any other damage fails the open
// with storage.ErrCorrupt. The returned store has running committer (and,
// unless opt.NoCompact, compactor) goroutines; Close stops them.
func Open(dir string, opt Options) (*LogStore, error) {
	s := &LogStore{
		dir:           dir,
		opt:           opt.withDefaults(),
		recs:          make(map[int]*recInfo),
		segs:          make(map[int]*segInfo),
		projSeg:       -1,
		fSeg:          -1,
		committerDone: make(chan struct{}),
		compactKick:   make(chan struct{}, 1),
		compactorDone: make(chan struct{}),
		stop:          make(chan struct{}),
	}
	s.commit.L = &s.mu
	s.flow.L = &s.mu
	s.synced.L = &s.mu
	if err := s.replay(); err != nil {
		return nil, err
	}
	go s.committer()
	if s.opt.NoCompact {
		close(s.compactorDone)
	} else {
		go s.compactor()
	}
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
	if old := s.recs[cp.Index]; old != nil && !old.dead {
		// A dead record's index is free: this save supersedes it.
		s.mu.Unlock()
		return fmt.Errorf("storage: duplicate save of checkpoint %d of p%d", cp.Index, cp.Process)
	}
	b := s.stageSaveLocked(cp)
	if s.notify != nil {
		s.commit.Signal()
		s.staged++
		b.stage = s.staged
		s.obs.DurableLag.Add(1)
		s.mu.Unlock()
		return nil
	}
	s.holdLocked(b)
	err := s.awaitLocked(b)
	s.mu.Unlock()
	if err == nil && saveNs != nil {
		saveNs.Observe(time.Since(t0).Nanoseconds())
	}
	return err
}

// stageSaveLocked encodes cp, stages the frame, and applies index state. The
// caller makes the returned batch wanted: it holds and awaits it, or gives
// it a stage number.
func (s *LogStore) stageSaveLocked(cp storage.Checkpoint) *batch {
	s.enc = storage.AppendRecord(s.enc[:0], cp)
	s.roomLocked(frameHdrLen + len(s.enc))
	b, bodyOff, body := s.appendFrameLocked(kindCheckpoint, s.enc)
	b.saved = append(b.saved, cp.Index)
	ri := &recInfo{
		seg: b.seg, off: bodyOff, size: len(body), stateLen: len(cp.State),
		tombSeg: -1, pending: body, pendingIn: b,
	}
	if old := s.recs[cp.Index]; old != nil {
		// A dead record (Save refuses a live one): its bytes stay on disk.
		ri.older = withSeg(old.older, old.seg)
	}
	s.recs[cp.Index] = ri
	s.sorted = insertSorted(s.sorted, cp.Index)
	s.segs[b.seg].live += int64(len(body))
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
	return b
}

// roomLocked makes sure the open batch can take a frame of the given size,
// sealing it and rolling to a fresh segment when the segment would
// overflow. A frame too large for any segment is allowed to overflow a
// segment holding nothing else.
func (s *LogStore) roomLocked(need int) {
	if s.cur != nil {
		if s.cur.off+int64(len(s.cur.buf)+need) <= s.opt.SegmentBytes {
			return
		}
		s.cur = nil // seal; it stays queued for the committer
	}
	fresh := s.projSeg < 0 || s.projOff+int64(batchHdrLen+need) > s.opt.SegmentBytes
	if fresh && s.projOff == segHdrLen {
		fresh = false // empty segment: take the oversized frame here
	}
	if fresh {
		s.projSeg++
		s.projOff = segHdrLen
		s.segs[s.projSeg] = &segInfo{size: segHdrLen}
	}
	var b *batch
	if k := len(s.free); k > 0 {
		b, s.free = s.free[k-1], s.free[:k-1]
	} else {
		b = &batch{buf: make([]byte, 0, batchHdrLen+need)}
	}
	b.seg, b.off, b.newSeg = s.projSeg, s.projOff, fresh
	b.buf = append(b.buf, make([]byte, batchHdrLen)...) // header placeholder
	s.cur = b
	s.queue = append(s.queue, b)
	s.segs[b.seg].batches++
	s.projOff += batchHdrLen
	s.segs[b.seg].size += batchHdrLen
	s.stagedBytes += batchHdrLen
}

// appendFrameLocked appends one frame to the open batch and returns the
// batch, the segment offset of the body, and the staged body bytes (stable:
// later appends never rewrite an already-staged region).
func (s *LogStore) appendFrameLocked(kind byte, body []byte) (*batch, int64, []byte) {
	b := s.cur
	bodyOff := b.off + int64(len(b.buf)) + frameHdrLen
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(body)))
	b.buf = append(b.buf, kind)
	b.buf = append(b.buf, body...)
	b.records++
	n := frameHdrLen + len(body)
	s.projOff += int64(n)
	s.segs[b.seg].size += int64(n)
	s.stagedBytes += n
	return b, bodyOff, b.buf[len(b.buf)-len(body):]
}

// stageTombstoneLocked stages the deletion tombstone of checkpoint index in
// the open batch. It wakes nobody: a caller that needs the tombstone durable
// holds the returned batch.
func (s *LogStore) stageTombstoneLocked(index int) *batch {
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], uint64(index))
	s.roomLocked(frameHdrLen + len(body))
	b, _, _ := s.appendFrameLocked(kindTombstone, body[:])
	return b
}

// Delete implements Store: the record is marked dead — every later call
// sees it gone — and its tombstone is staged to ride the next batch somebody
// waits for; only the delete of the most recent checkpoint waits for that
// batch itself (see the package comment for the durability contract). The
// dead bytes stay in their segment until compaction claims it.
func (s *LogStore) Delete(index int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	ri := s.recs[index]
	if ri == nil || ri.dead {
		return fmt.Errorf("storage: delete of absent checkpoint %d", index)
	}
	newest := index == s.sorted[len(s.sorted)-1]
	b := s.stageTombstoneLocked(index)
	ri.dead = true
	ri.tombSeg = b.seg
	s.sorted = removeSorted(s.sorted, index)
	s.segs[ri.seg].live -= int64(ri.size)
	s.stats.Collected++
	s.stats.Live--
	s.stats.LiveBytes -= ri.stateLen
	s.obs.Deletes.Inc()
	s.obs.Retained.Add(-1)
	s.flight.Record(obs.Event{Kind: obs.EvCollect, P: s.proc, Msg: index})
	s.kickCompactLocked()
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
// from their segment. A failed store still serves what it holds; a closed
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
	cp, err := s.loadLocked(index)
	if err == nil && s.obs.LoadNs != nil {
		s.obs.LoadNs.Observe(time.Since(t0).Nanoseconds())
	}
	return cp, err
}

// LoadDV implements Store: Load's one read cut to the record's prefix —
// every word before the state — decoded by storage.DecodeVector, whose
// state-length word must match the one this index recorded. It serves and
// refuses what Load does.
func (s *LogStore) LoadDV(index int) (vclock.DV, error) {
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
	dv, err := storage.DecodeVector(prefix, ri.stateLen)
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
	if ri := s.recs[index]; ri == nil || ri.dead {
		return fmt.Errorf("storage: load of absent checkpoint %d", index)
	}
	return nil
}

// loadLocked reads and decodes the record of index, which the caller has
// checked is present.
func (s *LogStore) loadLocked(index int) (storage.Checkpoint, error) {
	ri := s.recs[index]
	body, err := s.bodyLocked(ri, ri.size)
	if err != nil {
		return storage.Checkpoint{}, fmt.Errorf("storage: read checkpoint %d: %w", index, err)
	}
	cp, err := storage.DecodeRecord(body)
	if err != nil {
		return storage.Checkpoint{}, fmt.Errorf("storage: corrupt checkpoint %d: %w", index, err)
	}
	return cp, nil
}

// bodyLocked returns the first n bytes of a record's body: from the staging
// copy while its batch is in flight, by one read through the segment's kept
// descriptor once durable. The read lands in s.rbuf, so the bytes are valid
// only until the next call; the decoders copy out of them.
func (s *LogStore) bodyLocked(ri *recInfo, n int) ([]byte, error) {
	if ri.pending != nil {
		return ri.pending[:n], nil
	}
	seg := s.segs[ri.seg]
	if seg.rf == nil {
		f, err := os.Open(segPath(s.dir, ri.seg))
		if err != nil {
			return nil, err
		}
		seg.rf = f
	}
	if cap(s.rbuf) < n {
		s.rbuf = make([]byte, n)
	}
	body := s.rbuf[:n]
	if _, err := seg.rf.ReadAt(body, ri.off); err != nil {
		return nil, err
	}
	return body, nil
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
// NotifyDurable callback), the goroutines exit, the tail file handle and
// every segment's read descriptor close. Later operations fail; Close is
// idempotent.
func (s *LogStore) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.commit.Broadcast()
	s.flow.Broadcast()
	s.mu.Unlock()
	<-s.committerDone
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.compactorDone
	s.mu.Lock()
	defer s.mu.Unlock()
	// No reader is left: Load refuses a closed store, the compactor exited.
	for _, seg := range s.segs {
		seg.closeReader()
	}
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
			s.opt.OnCommit(Commit{Seg: b.seg, Start: b.off, End: b.off + int64(len(b.buf)), Records: b.records})
		}

		s.mu.Lock()
		if err != nil {
			// b left the queue before failLocked could sweep it.
			s.failLocked(err)
			b.done, b.err = true, s.failed
			s.synced.Broadcast()
			continue
		}
		if seg := s.segs[b.seg]; seg != nil {
			seg.batches--
		}
		s.stagedBytes -= len(b.buf)
		for _, idx := range b.saved {
			if ri := s.recs[idx]; ri != nil && ri.pendingIn == b {
				ri.pending, ri.pendingIn = nil, nil
			}
		}
		s.obs.BatchRecords.Observe(int64(b.records))
		s.updateLiveRatioLocked()
		stage := b.stage
		b.done = true
		s.synced.Broadcast()
		s.recycleLocked(b)
		s.flow.Broadcast()
		s.kickCompactLocked()
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
// the segment. Only the committer calls this; it owns s.f.
func (s *LogStore) writeBatch(b *batch) error {
	if s.f == nil || s.fSeg != b.seg {
		if s.f != nil {
			s.f.Close()
			s.f = nil
		}
		f, err := os.OpenFile(segPath(s.dir, b.seg), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		s.f, s.fSeg = f, b.seg
		if b.newSeg {
			var hdr [segHdrLen]byte
			binary.LittleEndian.PutUint64(hdr[0:], segMagic)
			binary.LittleEndian.PutUint64(hdr[8:], uint64(b.seg))
			if _, err := f.WriteAt(hdr[:], 0); err != nil {
				return err
			}
		}
	}
	if _, err := s.f.WriteAt(b.buf, b.off); err != nil {
		return err
	}
	return s.opt.Sync(s.f)
}

// updateLiveRatioLocked refreshes the live-ratio gauge from the per-segment
// accounting. Free when no gauge is attached.
func (s *LogStore) updateLiveRatioLocked() {
	if s.obs.LiveRatioPct == nil {
		return
	}
	var live, size int64
	for _, seg := range s.segs {
		live += seg.live
		size += seg.size
	}
	if size > 0 {
		s.obs.LiveRatioPct.Set(100 * live / size)
	}
}

// withSeg adds seg to a record's older segments, once.
func withSeg(older []int, seg int) []int {
	if slices.Contains(older, seg) {
		return older
	}
	return append(older, seg)
}

// copyOutside reports whether a copy of ri's index, its own or an earlier
// one, survives in a segment other than victim.
func (ri *recInfo) copyOutside(victim int) bool {
	return ri.seg != victim || slices.ContainsFunc(ri.older, func(seg int) bool { return seg != victim })
}

// insertSorted and removeSorted mirror MemStore's helpers.
func insertSorted(s []int, idx int) []int {
	if n := len(s); n == 0 || idx > s[n-1] {
		return append(s, idx)
	}
	at := sort.SearchInts(s, idx)
	s = append(s, 0)
	copy(s[at+1:], s[at:])
	s[at] = idx
	return s
}

func removeSorted(s []int, idx int) []int {
	at := sort.SearchInts(s, idx)
	if at >= len(s) || s[at] != idx {
		return s
	}
	return append(s[:at], s[at+1:]...)
}
