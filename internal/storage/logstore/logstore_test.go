package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

func openTest(t *testing.T, dir string, opt Options) *LogStore {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// ckpt builds a deterministic checkpoint for index idx.
func ckpt(idx int) storage.Checkpoint {
	return storage.Checkpoint{
		Process: 1,
		Index:   idx,
		DV:      vclock.DV{idx, 2 * idx, 7, idx % 3},
		State:   []byte(fmt.Sprintf("state-%04d", idx)),
	}
}

func wantCkpt(t *testing.T, s storage.Store, idx int) {
	t.Helper()
	got, err := s.Load(idx)
	if err != nil {
		t.Fatalf("Load(%d): %v", idx, err)
	}
	want := ckpt(idx)
	if got.Process != want.Process || got.Index != idx || !got.DV.Equal(want.DV) || !bytes.Equal(got.State, want.State) {
		t.Fatalf("Load(%d) = %+v, want %+v", idx, got, want)
	}
}

func TestLogStoreBasics(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	cp := storage.Checkpoint{Process: 2, Index: 0, DV: vclock.DV{1, 0, 3}, State: []byte("hello")}
	if err := s.Save(cp); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(cp); err == nil {
		t.Fatal("duplicate Save should fail")
	}
	got, err := s.Load(0)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Process != 2 || !got.DV.Equal(cp.DV) || !bytes.Equal(got.State, cp.State) {
		t.Fatalf("Load = %+v, want %+v", got, cp)
	}
	if err := s.Save(storage.Checkpoint{Process: 2, Index: 3, DV: vclock.DV{2, 0, 4}}); err != nil {
		t.Fatalf("Save(3): %v", err)
	}
	if got := s.Indices(); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("Indices = %v, want [0 3]", got)
	}
	if err := s.Delete(0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete(0); err == nil {
		t.Fatal("double Delete should fail")
	}
	if _, err := s.Load(0); err == nil {
		t.Fatal("Load after Delete should fail")
	}
	st := s.Stats()
	if st.Live != 1 || st.Saved != 2 || st.Collected != 1 || st.Peak != 2 {
		t.Fatalf("Stats = %+v, want Live=1 Saved=2 Collected=1 Peak=2", st)
	}
}

// TestLogStoreIsolation checks stored checkpoints do not alias caller data:
// the Save contract says cp.DV and cp.State must not be retained.
func TestLogStoreIsolation(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	dv := vclock.DV{1, 2}
	state := []byte{9}
	if err := s.Save(storage.Checkpoint{Index: 0, DV: dv, State: state}); err != nil {
		t.Fatal(err)
	}
	dv[0] = 99
	state[0] = 99
	got, err := s.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.DV[0] != 1 || got.State[0] != 9 {
		t.Fatalf("stored checkpoint aliases caller slices: %+v", got)
	}
}

// TestLogStoreReopen saves enough records for delta chains and several
// segments, deletes some, reopens, and checks the rebuilt index matches.
func TestLogStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 512, NoCompact: true})
	const n = 40
	for i := 0; i < n; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatalf("Save(%d): %v", i, err)
		}
	}
	deleted := map[int]bool{3: true, 4: true, 17: true, 30: true}
	for idx := range deleted {
		if err := s.Delete(idx); err != nil {
			t.Fatalf("Delete(%d): %v", idx, err)
		}
	}
	before := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openTest(t, dir, Options{SegmentBytes: 512, NoCompact: true})
	var want []int
	for i := 0; i < n; i++ {
		if !deleted[i] {
			want = append(want, i)
			wantCkpt(t, r, i)
		}
	}
	if got := r.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices after reopen = %v, want %v", got, want)
	}
	st := r.Stats()
	if st.Live != before.Live || st.LiveBytes != before.LiveBytes {
		t.Fatalf("Stats after reopen = %+v, want Live=%d LiveBytes=%d", st, before.Live, before.LiveBytes)
	}
	if r.TornTails() != 0 {
		t.Fatalf("clean reopen reported %d torn tails", r.TornTails())
	}
	// The reopened store keeps working: chains restart, saves land.
	if err := r.Save(ckpt(n)); err != nil {
		t.Fatalf("Save after reopen: %v", err)
	}
	wantCkpt(t, r, n)
}

// TestLogStoreSupersede exercises the rollback pattern: delete the latest
// checkpoints top-down, re-save the same indices, and verify the re-saved
// content wins both live and across a reopen.
func TestLogStoreSupersede(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoCompact: true})
	for i := 0; i < 10; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 9; i >= 6; i-- { // rollback deletes from the top down
		if err := s.Delete(i); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	resaved := storage.Checkpoint{Process: 1, Index: 6, DV: vclock.DV{100, 200, 7, 0}, State: []byte("resaved")}
	if err := s.Save(resaved); err != nil {
		t.Fatalf("re-save after rollback: %v", err)
	}
	check := func(st storage.Store) {
		t.Helper()
		got, err := st.Load(6)
		if err != nil {
			t.Fatalf("Load(6): %v", err)
		}
		if !got.DV.Equal(resaved.DV) || !bytes.Equal(got.State, resaved.State) {
			t.Fatalf("Load(6) = %+v, want re-saved copy", got)
		}
		if got := st.Indices(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6}) {
			t.Fatalf("Indices = %v", got)
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(openTest(t, dir, Options{NoCompact: true}))
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// TestLogStoreCompaction deletes most of the early segments' records and
// waits for the compactor to rewrite them; the view must be unchanged, the
// segment count must drop, and a reopen must agree (tombstone carry and
// supersede both get exercised by the rewrite).
func TestLogStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openTest(t, dir, Options{SegmentBytes: 1024})
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
	const n = 60
	for i := 0; i < n; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	nsegs := len(segFiles(t, dir))
	if nsegs < 3 {
		t.Fatalf("want several segments before compaction, got %d", nsegs)
	}
	var live []int
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			live = append(live, i)
			continue
		}
		if err := s.Delete(i); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	awaitCompaction(t, reg)
	if got := s.Indices(); !reflect.DeepEqual(got, live) {
		t.Fatalf("Indices after compaction = %v, want %v", got, live)
	}
	for _, idx := range live {
		wantCkpt(t, s, idx)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{SegmentBytes: 1024, NoCompact: true})
	if got := r.Indices(); !reflect.DeepEqual(got, live) {
		t.Fatalf("Indices after compaction+reopen = %v, want %v", got, live)
	}
	for _, idx := range live {
		wantCkpt(t, r, idx)
	}
}

// TestLogStoreTornTail truncates the final segment mid-batch and checks
// replay comes back with exactly the prefix before that batch, counting the
// torn tail; a truncation in a non-final segment must refuse loudly.
func TestLogStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var commits []Commit
	s := openTest(t, dir, Options{
		SegmentBytes: 4 << 20, NoCompact: true,
		OnCommit: func(c Commit) { mu.Lock(); commits = append(commits, c); mu.Unlock() },
	})
	const n = 8
	for i := 0; i < n; i++ { // serial saves: one batch per op
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(commits) != n {
		t.Fatalf("got %d commits for %d serial saves", len(commits), n)
	}
	seg := filepath.Join(dir, segFiles(t, dir)[0])
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Cut inside the batch of op 5: ops 0..4 must survive, 5.. must vanish.
	cut := commits[5].Start + 7
	if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{NoCompact: true})
	if got := r.Indices(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("Indices after torn tail = %v, want [0 1 2 3 4]", got)
	}
	for i := 0; i < 5; i++ {
		wantCkpt(t, r, i)
	}
	if r.TornTails() != 1 {
		t.Fatalf("TornTails = %d, want 1", r.TornTails())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The truncation was made physical: a second reopen sees a clean log.
	r2 := openTest(t, dir, Options{NoCompact: true})
	if r2.TornTails() != 0 {
		t.Fatalf("second reopen still torn: %d", r2.TornTails())
	}
	r2.Close()

	// A mid-batch truncation in a non-final segment is not a crash shape:
	// it must refuse with storage.ErrCorrupt, not quietly drop a suffix.
	if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, segHdrLen)
	copy(hdr, whole[:segHdrLen])
	hdr[8] = 1 // segment id 1
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoCompact: true}); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("mid-log truncation: err = %v, want ErrCorrupt", err)
	}
}

// TestLogStoreBitFlip flips single bits in every region of a synced log —
// segment header, batch header, payload — and requires the open to refuse
// with storage.ErrCorrupt every time: bit rot is never a torn tail.
func TestLogStoreBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{NoCompact: true})
	for i := 0; i < 6; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segFiles(t, dir)[0])
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	offsets := []int{0, 9, segHdrLen + 1, segHdrLen + 9, segHdrLen + batchHdrLen + 3, len(whole) - 2}
	for i := 0; i < 12; i++ {
		offsets = append(offsets, rng.Intn(len(whole)))
	}
	for _, off := range offsets {
		flipped := append([]byte(nil), whole...)
		flipped[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(seg, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{NoCompact: true}); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("bit flip at offset %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}

// TestLogStoreConcurrent hammers the store from many goroutines (the -race
// lane's target): concurrent savers over disjoint index ranges plus loaders
// and a deleter, then verifies the surviving view and that group commit
// actually batched (fewer commits than records).
func TestLogStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openTest(t, dir, Options{SegmentBytes: 8 << 10})
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
	const (
		workers = 8
		per     = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx := w*per + i
				if err := s.Save(ckpt(idx)); err != nil {
					errs <- fmt.Errorf("Save(%d): %w", idx, err)
					return
				}
				if i%3 == 0 {
					if _, err := s.Load(idx); err != nil {
						errs <- fmt.Errorf("Load(%d): %w", idx, err)
						return
					}
				}
				if i%4 == 3 { // delete an earlier own index
					if err := s.Delete(idx - 1); err != nil {
						errs <- fmt.Errorf("Delete(%d): %w", idx-1, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Saved != workers*per {
		t.Fatalf("Saved = %d, want %d", st.Saved, workers*per)
	}
	if st.Live != len(s.Indices()) {
		t.Fatalf("Live = %d but Indices has %d", st.Live, len(s.Indices()))
	}
	commits := reg.Histogram(obs.StorageBatchRecords).Count()
	if commits == 0 {
		t.Fatal("no commits recorded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{SegmentBytes: 8 << 10, NoCompact: true})
	if got, live := r.Indices(), s.Indices(); !reflect.DeepEqual(got, live) {
		t.Fatalf("reopen Indices = %v, want %v", got, live)
	}
}

// TestTortureGroupCommitCrash is the staged-but-unsynced-batch oracle:
// concurrent Save/Delete traffic runs until the sync hook simulates a power
// failure (the batch is written but never synced, and the store fails
// loudly). Every op acknowledged before the crash must replay — where a
// Delete counts as acknowledged once a later Save of the same worker was
// (its tombstone rode that Save's batch or an earlier one); a Delete no Save
// followed may have lost its tombstone, so its checkpoint may resurrect. The
// ops in the crashed batch were never acknowledged and must be absent after
// replay — partially-applied batches must not exist, at any truncation
// point inside the torn batch.
func TestTortureGroupCommitCrash(t *testing.T) {
	dir := t.TempDir()
	var (
		mu      sync.Mutex
		commits []Commit
		syncs   int
	)
	const crashAt = 12
	crash := errors.New("injected power failure before sync")
	s, err := Open(dir, Options{
		SegmentBytes: 4 << 20, NoCompact: true,
		OnCommit: func(c Commit) { mu.Lock(); commits = append(commits, c); mu.Unlock() },
		Sync: func(f *os.File) error {
			mu.Lock()
			syncs++
			n := syncs
			mu.Unlock()
			if n > crashAt {
				return crash
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Concurrent mutators; each records which of its ops were acknowledged.
	const workers = 4
	type op struct {
		del bool
		idx int
	}
	acked := make([][]op, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				idx := w*1000 + i
				if err := s.Save(ckpt(idx)); err != nil {
					return // crash reached; everything after is unacknowledged
				}
				acked[w] = append(acked[w], op{false, idx})
				if i%3 == 2 {
					if err := s.Delete(idx); err != nil {
						return
					}
					acked[w] = append(acked[w], op{true, idx})
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Save(ckpt(999999)); err == nil {
		t.Fatal("store should be failed after the injected crash")
	}
	s.Close()

	// Expected live view: acked saves minus the deletes a later acked save
	// of the same worker covered; the worker's trailing deletes may go
	// either way.
	want, may := map[int]bool{}, map[int]bool{}
	for _, ops := range acked {
		var trailing []int
		for _, o := range ops {
			if o.del {
				delete(want, o.idx)
				trailing = append(trailing, o.idx)
			} else {
				want[o.idx] = true
				trailing = trailing[:0]
			}
		}
		for _, idx := range trailing {
			may[idx] = true
		}
	}

	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	seg := filepath.Join(dir, segs[0])
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	durableEnd := int64(segHdrLen)
	if len(commits) > 0 {
		durableEnd = commits[len(commits)-1].End
	}
	mu.Unlock()
	if int64(len(whole)) <= durableEnd {
		t.Fatalf("crashed batch not on disk: file %d bytes, durable end %d", len(whole), durableEnd)
	}

	// The crash can persist any strict prefix of the unsynced batch (a
	// fully persisted batch would just be an early commit — atomicity, not
	// loss). Whatever prefix the disk kept, replay must produce exactly the
	// acknowledged view: the batch is all-or-nothing, never partial.
	cuts := []int64{durableEnd, durableEnd + 1, durableEnd + batchHdrLen,
		(durableEnd + int64(len(whole))) / 2, int64(len(whole)) - 1}
	for _, cut := range cuts {
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{NoCompact: true})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		got := map[int]bool{}
		for _, idx := range r.Indices() {
			got[idx] = true
		}
		for idx := range want {
			if !got[idx] {
				t.Fatalf("cut=%d: acknowledged checkpoint %d lost after replay", cut, idx)
			}
		}
		for idx := range got {
			if !want[idx] && !may[idx] {
				t.Fatalf("cut=%d: unacknowledged checkpoint %d surfaced after replay", cut, idx)
			}
		}
		if cut > durableEnd && r.TornTails() != 1 {
			t.Fatalf("cut=%d: TornTails = %d, want 1", cut, r.TornTails())
		}
		r.Close()
		// Restore the crashed image for the next cut.
		if err := os.WriteFile(seg, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// storePair drives MemStore (the oracle) and a log store in lockstep and
// requires the same outcome of every op and identical Indices, Load and
// Stats views after it.
type storePair struct {
	t   *testing.T
	mem *storage.MemStore
	log *LogStore
}

func newStorePair(t *testing.T) *storePair {
	return &storePair{t: t, mem: storage.NewMemStore(), log: openTest(t, t.TempDir(), Options{SegmentBytes: 2048})}
}

// apply runs do against both stores and reports whether it succeeded.
func (p *storePair) apply(what string, do func(storage.Store) error) bool {
	p.t.Helper()
	memErr, logErr := do(p.mem), do(p.log)
	if (memErr == nil) != (logErr == nil) {
		p.t.Fatalf("%s: stores disagree on the outcome: mem %v, log %v", what, memErr, logErr)
	}
	ref := p.mem.Indices()
	if got := p.log.Indices(); !reflect.DeepEqual(got, ref) {
		p.t.Fatalf("%s: log Indices = %v, mem = %v", what, got, ref)
	}
	for _, idx := range ref {
		want, err := p.mem.Load(idx)
		if err != nil {
			p.t.Fatal(err)
		}
		got, err := p.log.Load(idx)
		if err != nil {
			p.t.Fatalf("%s: log Load(%d): %v", what, idx, err)
		}
		if got.Process != want.Process || !got.DV.Equal(want.DV) || !bytes.Equal(got.State, want.State) {
			p.t.Fatalf("%s: log Load(%d) = %+v, mem = %+v", what, idx, got, want)
		}
	}
	if got, want := p.log.Stats(), p.mem.Stats(); got != want {
		p.t.Fatalf("%s: log Stats = %+v, mem = %+v", what, got, want)
	}
	return memErr == nil
}

func (p *storePair) save(cp storage.Checkpoint) bool {
	p.t.Helper()
	return p.apply(fmt.Sprintf("Save(%d)", cp.Index), func(st storage.Store) error { return st.Save(cp) })
}

func (p *storePair) delete(idx int) bool {
	p.t.Helper()
	return p.apply(fmt.Sprintf("Delete(%d)", idx), func(st storage.Store) error { return st.Delete(idx) })
}

// TestStoreDifferential holds the log store to MemStore's behaviour, op by
// op: the Store contract's delta-chain cases (storage's own tests pin them
// on MemStore in absolute terms), then a seeded stream of saves, random
// deletes and rollback-style delete-then-resave. The CI determinism lane
// runs this as the storage differential.
func TestStoreDifferential(t *testing.T) {
	// sparse changes one entry per checkpoint, so records chain as deltas.
	sparse := func(idx int) storage.Checkpoint {
		cp := ckpt(idx)
		cp.DV = vclock.New(16)
		cp.DV[0] = idx
		return cp
	}
	mustDo := func(t *testing.T, ok bool) {
		t.Helper()
		if !ok {
			t.Fatal("op refused by both stores, want accepted")
		}
	}

	t.Run("long chains with interior deletes", func(t *testing.T) {
		p := newStorePair(t)
		const n = 3 * storage.FullEvery
		for i := 0; i < n; i++ {
			mustDo(t, p.save(sparse(i)))
		}
		for i := 0; i < n; i += 3 { // chain anchors and mid-chain deltas alike
			mustDo(t, p.delete(i))
		}
		if st := p.log.Stats(); st.Peak != n || st.Live != n-(n+2)/3 {
			t.Fatalf("Stats = %+v, want Peak=%d Live=%d", st, n, n-(n+2)/3)
		}
	})

	t.Run("deleted chain base", func(t *testing.T) {
		p := newStorePair(t)
		for i := 0; i < 4; i++ {
			mustDo(t, p.save(sparse(i)))
		}
		mustDo(t, p.delete(0)) // 1..3 still resolve through it
		mustDo(t, p.delete(1))
		if p.delete(0) {
			t.Fatal("double delete of a dead chain base accepted")
		}
		if p.save(sparse(0)) {
			t.Fatal("save onto an index a live chain still runs through accepted")
		}
		mustDo(t, p.delete(3)) // rollback: drop the top index, take it again
		resaved := sparse(3)
		resaved.State = []byte("again")
		mustDo(t, p.save(resaved))
		mustDo(t, p.delete(2))
		mustDo(t, p.delete(3))
		mustDo(t, p.save(sparse(0))) // the chain drained: index 0 is free
	})

	// seeded drives a stream of saves, random deletes, rollback-style
	// delete-then-resave and refused deletes through save and del.
	seeded := func(t *testing.T, save func(storage.Checkpoint) bool, del func(int) bool) {
		rng := rand.New(rand.NewSource(7))
		next := 0
		var live []int
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 6: // save the next index
				cp := ckpt(next)
				cp.DV = vclock.DV{rng.Intn(50), rng.Intn(50), rng.Intn(50), rng.Intn(50)}
				mustDo(t, save(cp))
				live = append(live, next)
				next++
			case r < 8 && len(live) > 0: // collect a random live checkpoint
				at := rng.Intn(len(live))
				mustDo(t, del(live[at]))
				live = append(live[:at], live[at+1:]...)
			case r == 8 && len(live) > 2: // rollback: delete top-down, re-save
				k := 1 + rng.Intn(2)
				for i := 0; i < k; i++ {
					mustDo(t, del(live[len(live)-1]))
					live = live[:len(live)-1]
				}
				next = live[len(live)-1] + 1
			default: // delete of an absent index must fail everywhere
				if del(next + 100) {
					t.Fatalf("step %d: delete of an absent index accepted", step)
				}
			}
		}
	}

	t.Run("seeded stream", func(t *testing.T) {
		p := newStorePair(t)
		seeded(t, p.save, p.delete)
	})

	// The same stream with the log store's saves staged: held to MemStore op
	// by op the instant Save returns, while the record is not yet durable —
	// and, each save awaited through the callback before the next op (which
	// is all a waiting Save does), to a twin log store that waits in Save:
	// the two leave the same bytes on disk.
	t.Run("staged saves", func(t *testing.T) {
		dir, twinDir := t.TempDir(), t.TempDir()
		opt := Options{SegmentBytes: 2048, NoCompact: true}
		p := &storePair{t: t, mem: storage.NewMemStore(), log: openTest(t, dir, opt)}
		twin := openTest(t, twinDir, opt)
		w := newDurableWaiter()
		p.log.NotifyDurable(w.notify)
		seeded(t, func(cp storage.Checkpoint) bool {
			ok := p.save(cp)
			if ok {
				if err := w.await(p.log.Staged()); err != nil {
					t.Fatal(err)
				}
			}
			if err := twin.Save(cp); (err == nil) != ok {
				t.Fatalf("Save(%d): staged %v, twin %v", cp.Index, ok, err)
			}
			return ok
		}, func(idx int) bool {
			ok := p.delete(idx)
			if err := twin.Delete(idx); (err == nil) != ok {
				t.Fatalf("Delete(%d): staged %v, twin %v", idx, ok, err)
			}
			return ok
		})
		if got, want := p.log.Staged(), uint64(p.log.Stats().Saved); got != want {
			t.Fatalf("Staged() = %d after %d saves", got, want)
		}
		if err := p.log.Close(); err != nil {
			t.Fatal(err)
		}
		if err := twin.Close(); err != nil {
			t.Fatal(err)
		}
		segs := segFiles(t, dir)
		if !reflect.DeepEqual(segs, segFiles(t, twinDir)) || len(segs) < 2 {
			t.Fatalf("segments %v, twin %v", segs, segFiles(t, twinDir))
		}
		for _, name := range segs {
			a, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(twinDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s differs between the staged store and the waiting twin", name)
			}
		}
	})

	// The same stream on segments of a few records each, saves staged and
	// compaction on: the after-every-op Loads meet staged records, the tail
	// the committer is appending to, sealed segments, and records compaction
	// rewrote after closing and unlinking their old segment. A last view
	// comparison once compaction has run covers the rewritten records for
	// certain.
	t.Run("churn", func(t *testing.T) {
		reg := obs.NewRegistry()
		p := &storePair{t: t, mem: storage.NewMemStore(), log: openTest(t, t.TempDir(), Options{SegmentBytes: 512})}
		p.log.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
		p.log.NotifyDurable(newDurableWaiter().notify)
		seeded(t, p.save, p.delete)
		awaitCompaction(t, reg)
		p.apply("view after compaction", func(storage.Store) error { return nil })
	})
}

// durableWaiter is a NotifyDurable callback a test can wait on.
type durableWaiter struct {
	mu    sync.Mutex
	cond  sync.Cond
	seq   uint64
	err   error
	calls []uint64
}

func newDurableWaiter() *durableWaiter {
	w := &durableWaiter{}
	w.cond.L = &w.mu
	return w
}

func (w *durableWaiter) notify(seq uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq, w.err = seq, err
	w.calls = append(w.calls, seq)
	w.cond.Broadcast()
}

// await returns once seq is reported durable (nil) or the store has
// reported its failure.
func (w *durableWaiter) await(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && w.seq < seq {
		w.cond.Wait()
	}
	return w.err
}

// TestStagedSaveOrdersBeforeItsTombstones: with the flush of a staged save
// still in flight, the disk holds no tombstone issued after it — the log is
// FIFO, so a collection decided on the strength of a staged checkpoint is
// durable no earlier than the checkpoint — and Close settles both, reporting
// the stage to the callback before it returns.
func TestStagedSaveOrdersBeforeItsTombstones(t *testing.T) {
	dir := t.TempDir()
	var gate sync.Mutex // held: flushes sit in Sync
	flushing := make(chan struct{}, 8)
	s := openTest(t, dir, Options{NoCompact: true, Sync: func(*os.File) error {
		flushing <- struct{}{}
		gate.Lock()
		gate.Unlock()
		return nil
	}})
	w := newDurableWaiter()
	s.NotifyDurable(w.notify)
	for i := 0; i < 2; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
		<-flushing
	}
	if err := w.await(2); err != nil {
		t.Fatal(err)
	}

	gate.Lock()
	if err := s.Save(ckpt(2)); err != nil { // staged; returns with the flush stuck
		t.Fatal(err)
	}
	<-flushing
	if err := s.Delete(1); err != nil { // collected on the strength of checkpoint 2
		t.Fatal(err)
	}
	if got, want := s.Indices(), []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices = %v with the flush in flight, want %v", got, want)
	}
	wantCkpt(t, s, 2)
	img := t.TempDir()
	for _, name := range segFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := openTest(t, img, Options{NoCompact: true})
	if !slices.Contains(r.Indices(), 1) {
		t.Fatalf("crash image with checkpoint 2's flush in flight reopens with %v: the tombstone of 1 overtook it", r.Indices())
	}
	w.mu.Lock()
	early := append([]uint64(nil), w.calls...)
	w.mu.Unlock()
	if want := []uint64{1, 2}; !reflect.DeepEqual(early, want) {
		t.Fatalf("callback calls %v with stage 3 not durable, want %v", early, want)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	gate.Unlock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	calls := append([]uint64(nil), w.calls...)
	w.mu.Unlock()
	if want := []uint64{1, 2, 3}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("callback calls %v when Close returned, want %v", calls, want)
	}
	r2 := openTest(t, dir, Options{NoCompact: true})
	if got, want := r2.Indices(), []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened Indices = %v, want %v", got, want)
	}
}

// TestNoGoroutineLeakAfterStoreClose guards Close's promises: after saves,
// reads of every record, deletes heavy enough to kick a compaction and a
// trailing batch of staged tombstones, the committer and compactor are gone
// when it returns (the goroutine count is back at its pre-Open value), so is
// every descriptor the store opened — the read descriptors of the segments
// compaction dropped and of those it did not (the descriptor count is back
// at its pre-Open value) — closing again is a no-op returning nil (the
// engines that own a store and the callers that opened it may both close),
// and later operations fail.
func TestNoGoroutineLeakAfterStoreClose(t *testing.T) {
	// With the collector off, no *os.File finalizer can close a descriptor
	// the store forgot (compaction dropping a segment without closing it).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base, baseFDs := runtime.NumGoroutine(), leakcheck.FDs(t)
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), Options{SegmentBytes: 512, Sync: func(*os.File) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
	// Each record is read back once durable, so every segment holds a read
	// descriptor. Deletes of 0..29 ride the saves that follow them, so sealed
	// segments fall under CompactRatio and compaction drops some of them; the
	// compactor is kicked again and at work when Close arrives, and the
	// tombstones of 30..39 are still staged then.
	for i := 0; i < 50; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
		wantCkpt(t, s, i)
		if i >= 40 {
			for d := (i - 40) * 3; d < (i-39)*3; d++ {
				if err := s.Delete(d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	awaitCompaction(t, reg)
	for d := 30; d < 40; d++ {
		if err := s.Delete(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	leakcheck.Settle(t, base)
	leakcheck.SettleFDs(t, baseFDs)
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Save(ckpt(50)); err == nil {
		t.Fatal("Save on a closed store accepted")
	}
	if _, err := s.Load(45); err == nil {
		t.Fatal("Load on a closed store accepted")
	}
	leakcheck.SettleFDs(t, baseFDs)
}

// awaitCompaction waits until the store reporting to reg has dropped a
// segment.
func awaitCompaction(t *testing.T, reg *obs.Registry) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(obs.StorageCompactions).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compaction never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadDescriptorsBoundedBySegments: a thousand Loads spread over every
// live segment leave at most one read descriptor open per segment — a read
// reuses the descriptor its segment keeps instead of opening the file — and
// Close releases them all.
func TestReadDescriptorsBoundedBySegments(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in TestNoGoroutineLeakAfterStoreClose
	baseFDs := leakcheck.FDs(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1024, NoCompact: true, Sync: func(*os.File) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := len(segFiles(t, dir))
	if segs < 5 {
		t.Fatalf("%d segments, want several", segs)
	}
	before := leakcheck.FDs(t)
	for k := 0; k < 1000; k++ {
		wantCkpt(t, s, k%n)
	}
	if held := leakcheck.FDs(t) - before; held < 1 || held > segs {
		t.Fatalf("1000 loads over %d segments hold %d descriptors, want 1..%d", segs, held, segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.SettleFDs(t, baseFDs)
}

// TestLoadsRaceCommitterAndCompactor runs readers against a writer on tiny
// segments, so a Load meets a staged record, the tail segment while the
// committer appends to it, a sealed segment, or a record compaction has
// rewritten and whose old segment it closed and unlinked. The writer keeps
// every fourth checkpoint and deletes the rest, so compaction keeps running;
// every Load of a kept checkpoint must succeed with its bytes. Its subject is
// the read path's locking: the race lane runs it under the detector, the
// flake lane at GOMAXPROCS 1, 2 and 4.
func TestLoadsRaceCommitterAndCompactor(t *testing.T) {
	reg := obs.NewRegistry()
	s := openTest(t, t.TempDir(), Options{SegmentBytes: 512, Sync: func(*os.File) error { return nil }})
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
	const n, readers = 400, 4
	var saved atomic.Int64 // highest index saved; kept ones at or below it are loadable
	saved.Store(-1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done) // before the wait, and before the store closes
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				top := saved.Load()
				if top < 0 {
					runtime.Gosched()
					continue
				}
				idx := 4 * rng.Intn(int(top/4)+1)
				got, err := s.Load(idx)
				if want := ckpt(idx); err != nil || !got.DV.Equal(want.DV) || !bytes.Equal(got.State, want.State) {
					t.Errorf("Load(%d) = %+v, %v; want %+v", idx, got, err, want)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < n; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			saved.Store(int64(i))
		} else if i%4 == 3 {
			for d := i - 2; d <= i; d++ {
				if err := s.Delete(d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	awaitCompaction(t, reg)
}

// TestLogStoreObsMetrics checks the log backend reports through the obs
// registry: batch sizes, commit latency, live ratio, and compactions.
func TestLogStoreObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := openTest(t, t.TempDir(), Options{SegmentBytes: 1024})
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 3)
	for i := 0; i < 30; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 27; i++ {
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(obs.StorageSaves).Value(); got != 30 {
		t.Fatalf("saves counter = %d, want 30", got)
	}
	if got := reg.Counter(obs.StorageDeletes).Value(); got != 27 {
		t.Fatalf("deletes counter = %d, want 27", got)
	}
	if reg.Histogram(obs.StorageBatchRecords).Count() == 0 {
		t.Fatal("no batch-size observations")
	}
	if reg.Histogram(obs.StorageCommitNs).Count() == 0 {
		t.Fatal("no commit-latency observations")
	}
	awaitCompaction(t, reg)
	if got := reg.Gauge(obs.StorageLiveRatioPct).Value(); got < 0 || got > 100 {
		t.Fatalf("live ratio gauge = %d, want a percentage", got)
	}
}

// TestLogStoreBackendRegistered checks the storage.Open selector reaches
// this package via its init registration.
func TestLogStoreBackendRegistered(t *testing.T) {
	st, err := storage.Open(storage.Log, t.TempDir())
	if err != nil {
		t.Fatalf("storage.Open(log): %v", err)
	}
	if err := st.Save(ckpt(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*LogStore); !ok {
		t.Fatalf("storage.Open(log) = %T, want *LogStore", st)
	}
	st.(*LogStore).Close()
}

// TestDeleteRidesTheNextCommit pins Delete's contract: it returns without a
// flush of its own (even while the committer is held inside one), the view
// reflects it at once, the tombstone shares the next Save's batch, and Close
// makes a trailing tombstone durable.
func TestDeleteRidesTheNextCommit(t *testing.T) {
	dir := t.TempDir()
	var (
		mu      sync.Mutex
		commits []Commit
		hold    bool
	)
	entered := make(chan struct{})
	release := make(chan struct{})
	s := openTest(t, dir, Options{
		NoCompact: true,
		OnCommit:  func(c Commit) { mu.Lock(); commits = append(commits, c); mu.Unlock() },
		Sync: func(*os.File) error {
			mu.Lock()
			h := hold
			mu.Unlock()
			if h {
				entered <- struct{}{}
				<-release
			}
			return nil
		},
	})
	records := func() []int {
		mu.Lock()
		defer mu.Unlock()
		var rs []int
		for _, c := range commits {
			rs = append(rs, c.Records)
		}
		return rs
	}
	for i := 0; i < 3; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	hold = true
	mu.Unlock()
	saved := make(chan error, 1)
	go func() { saved <- s.Save(ckpt(3)) }()
	<-entered // the committer now sits inside the flush of Save(3)

	deleted := make(chan error, 1)
	go func() { deleted <- s.Delete(0) }()
	select {
	case err := <-deleted:
		if err != nil {
			t.Fatalf("Delete(0): %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Delete waited for the flush in progress")
	}
	if got, want := s.Indices(), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices = %v while the tombstone is staged, want %v", got, want)
	}
	if st := s.Stats(); st.Live != 3 || st.Collected != 1 {
		t.Fatalf("Stats = %+v while the tombstone is staged, want Live 3, Collected 1", st)
	}
	if _, err := s.Load(0); err == nil {
		t.Fatal("Load(0) served a deleted checkpoint")
	}
	if err := s.Delete(0); err == nil {
		t.Fatal("double Delete(0) should fail")
	}

	mu.Lock()
	hold = false
	mu.Unlock()
	close(release)
	if err := <-saved; err != nil {
		t.Fatalf("Save(3): %v", err)
	}
	if got, want := records(), []int{1, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("records per commit %v, want %v: the tombstone must wait for a Save", got, want)
	}

	// The next Save carries the tombstone: one batch, two records.
	if err := s.Save(ckpt(4)); err != nil {
		t.Fatal(err)
	}
	if got, want := records(), []int{1, 1, 1, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("records per commit %v, want %v", got, want)
	}

	// A trailing tombstone is made durable by Close.
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := records(), []int{1, 1, 1, 1, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("records per commit after Close %v, want %v", got, want)
	}
	r := openTest(t, dir, Options{NoCompact: true})
	if got, want := r.Indices(), []int{2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened Indices = %v, want %v", got, want)
	}
	if r.TornTails() != 0 {
		t.Fatalf("reopen truncated %d torn tails of a cleanly closed store", r.TornTails())
	}
}

// TestFailedCommitSurfacesOnNextOp: the commit carrying a staged tombstone
// fails; the Save that waited on it reports the failure — to its caller, or,
// staged, to the NotifyDurable callback, which is never told the save is
// durable — and every later Save, Delete and Close repeats it.
func TestFailedCommitSurfacesOnNextOp(t *testing.T) {
	t.Run("Save waits", func(t *testing.T) { failedCommit(t, false) })
	t.Run("Save stages", func(t *testing.T) { failedCommit(t, true) })
}

func failedCommit(t *testing.T, staged bool) {
	boom := errors.New("injected flush failure")
	var fail sync.Mutex // guards failing
	failing := false
	s := openTest(t, t.TempDir(), Options{NoCompact: true, Sync: func(*os.File) error {
		fail.Lock()
		defer fail.Unlock()
		if failing {
			return boom
		}
		return nil
	}})
	w := newDurableWaiter()
	if staged {
		s.NotifyDurable(w.notify)
	}
	for i := 0; i < 2; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if staged {
		if err := w.await(2); err != nil {
			t.Fatal(err)
		}
	}
	fail.Lock()
	failing = true
	fail.Unlock()
	if err := s.Delete(0); err != nil {
		t.Fatalf("Delete(0) stages only; got %v", err)
	}
	if err := s.Save(ckpt(2)); staged {
		if err != nil {
			t.Fatalf("staged Save = %v, want nil: the failure belongs to the callback", err)
		}
		if err := w.await(3); !errors.Is(err, boom) {
			t.Fatalf("callback reported %v for stage 3, want the injected failure", err)
		}
		if w.seq != 3 {
			t.Fatalf("the failure came with stage %d, want 3: the newest save it loses", w.seq)
		}
	} else if !errors.Is(err, boom) {
		t.Fatalf("Save on a failing flush = %v, want the injected failure", err)
	}
	if err := s.Delete(1); !errors.Is(err, boom) {
		t.Fatalf("Delete after a failed commit = %v, want the sticky failure", err)
	}
	if err := s.Save(ckpt(3)); !errors.Is(err, boom) {
		t.Fatalf("Save after a failed commit = %v, want the sticky failure", err)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after a failed commit = %v, want the sticky failure", err)
	}
}

// TestSaveAllocationBudget holds the steady-state Save+Delete cycle to the
// one allocation it needs (the index entry): batch structs and their
// buffers come off the freelist.
func TestSaveAllocationBudget(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Sync: func(*os.File) error { return nil }})
	cp := ckpt(0)
	cp.State = make([]byte, 4096)
	next := 0
	cycle := func() {
		cp.Index = next
		cp.DV[0] = next
		if err := s.Save(cp); err != nil {
			t.Fatal(err)
		}
		if next > 0 {
			if err := s.Delete(next - 1); err != nil {
				t.Fatal(err)
			}
		}
		next++
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the freelist, the index map and the sorted slice
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 1 {
		t.Fatalf("Save+Delete steady state: %v allocs/op, want 1", allocs)
	}
}

// TestDeleteOfNewestIsDurableOnReturn: a rollback discards the checkpoints
// above its target in ascending order. The last of those deletes removes the
// store's most recent checkpoint, waits for its batch, and thereby settles
// the ones staged before it: the disk as it stands when Delete returns — no
// Close, no further Save — reopens without any of them.
func TestDeleteOfNewestIsDurableOnReturn(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var records []int
	s := openTest(t, dir, Options{NoCompact: true, OnCommit: func(c Commit) {
		mu.Lock()
		records = append(records, c.Records)
		mu.Unlock()
	}})
	for i := 0; i < 5; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range []int{3, 4} { // roll back to checkpoint 2
		if err := s.Delete(idx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := append([]int(nil), records...)
	mu.Unlock()
	if want := []int{1, 1, 1, 1, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("records per commit %v, want %v: both tombstones in one flush", got, want)
	}
	img := t.TempDir()
	for _, name := range segFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := openTest(t, img, Options{NoCompact: true})
	if got, want := r.Indices(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("crash image after the rollback's deletes reopens with %v, want %v", got, want)
	}
}
