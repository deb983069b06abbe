package logstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
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

// openFloor opens a store whose generations switch from floor bytes on
// instead of genFloor's 4 MiB, so a test switches within a few records.
func openFloor(t *testing.T, dir string, opt Options, floor int64) *LogStore {
	t.Helper()
	s := openTest(t, dir, opt)
	s.mu.Lock()
	s.floor = floor
	s.mu.Unlock()
	return s
}

// switchNow switches s to a new generation and waits for its first batch.
func switchNow(t *testing.T, s *LogStore) {
	t.Helper()
	s.mu.Lock()
	err := s.switchLocked()
	if err == nil {
		b := s.cur
		s.holdLocked(b)
		err = s.awaitLocked(b)
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
}

// genOf reads the current generation of s.
func genOf(s *LogStore) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

func noSync(*os.File) error { return nil }

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

// TestLogStoreReopen saves records across a generation switch, deletes
// some, and checks the index and every survivor before and after a reopen,
// on two inputs: a few scattered deletes, and every third record of a run
// whose 64-entry vectors move one or two entries per save.
func TestLogStoreReopen(t *testing.T) {
	var scattered []storage.Checkpoint
	for i := 0; i < 40; i++ {
		scattered = append(scattered, ckpt(i))
	}
	var small []storage.Checkpoint
	rng := rand.New(rand.NewSource(7))
	dv := vclock.New(64)
	for i := 0; i < 24; i++ {
		dv[0] = i
		dv[rng.Intn(len(dv))]++
		small = append(small, storage.Checkpoint{Process: 0, Index: i, DV: dv.Clone(), State: []byte("st")})
	}
	for _, tc := range []struct {
		name    string
		cps     []storage.Checkpoint // cps[i].Index == i
		deleted func(idx int) bool
	}{
		{"scattered deletes", scattered, func(i int) bool { return i == 3 || i == 4 || i == 17 || i == 30 }},
		{"every third of small changes", small, func(i int) bool { return i%3 == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Options{})
			for _, cp := range tc.cps {
				if err := s.Save(cp); err != nil {
					t.Fatalf("Save(%d): %v", cp.Index, err)
				}
				if cp.Index == len(tc.cps)/2 {
					switchNow(t, s)
				}
			}
			var want []int
			for _, cp := range tc.cps {
				if !tc.deleted(cp.Index) {
					want = append(want, cp.Index)
				} else if err := s.Delete(cp.Index); err != nil {
					t.Fatalf("Delete(%d): %v", cp.Index, err)
				}
			}
			check := func(st *LogStore) {
				t.Helper()
				if got := st.Indices(); !reflect.DeepEqual(got, want) {
					t.Fatalf("Indices = %v, want %v", got, want)
				}
				for _, idx := range want {
					got, err := st.Load(idx)
					if err != nil {
						t.Fatalf("Load(%d): %v", idx, err)
					}
					if cp := tc.cps[idx]; got.Process != cp.Process || !got.DV.Equal(cp.DV) || !bytes.Equal(got.State, cp.State) {
						t.Fatalf("Load(%d) = %+v, want %+v", idx, got, cp)
					}
				}
			}
			check(s)
			before := s.Stats()
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			r := openTest(t, dir, Options{})
			check(r)
			st := r.Stats()
			if st.Live != before.Live || st.LiveBytes != before.LiveBytes {
				t.Fatalf("Stats after reopen = %+v, want Live=%d LiveBytes=%d", st, before.Live, before.LiveBytes)
			}
			if r.TornTails() != 0 {
				t.Fatalf("clean reopen reported %d torn tails", r.TornTails())
			}
			// The reopened store keeps working.
			next := tc.cps[len(tc.cps)-1]
			next.Index++
			if err := r.Save(next); err != nil {
				t.Fatalf("Save after reopen: %v", err)
			}
			if got, err := r.Load(next.Index); err != nil || !got.DV.Equal(next.DV) {
				t.Fatalf("Load(%d) after reopen = %+v, %v", next.Index, got, err)
			}
		})
	}
}

// TestDeltaRecordFailsOpen: a log whose checksummed batch holds a record of
// the retired delta kind (kind word 1) refuses to open with ErrCorrupt
// rather than load a vector it cannot rebuild. The same generation with the
// kind word 0 opens, so the kind word is what it refuses.
func TestDeltaRecordFailsOpen(t *testing.T) {
	open := func(kind uint64) (*LogStore, error) {
		body := storage.AppendRecord(nil, ckpt(1))
		binary.LittleEndian.PutUint64(body[24:], kind) // magic, process, index, then the kind word
		batch := make([]byte, batchHdrLen)
		batch = binary.LittleEndian.AppendUint32(batch, uint32(len(body)))
		batch = append(batch, kindCheckpoint)
		batch = append(batch, body...)
		finalizeBatch(batch, 1)
		gen := binary.LittleEndian.AppendUint64(nil, genMagic)
		gen = binary.LittleEndian.AppendUint64(gen, 0) // generation number
		dir := t.TempDir()
		if err := os.WriteFile(genPath(dir, 0), append(gen, batch...), 0o644); err != nil {
			t.Fatal(err)
		}
		return Open(dir, Options{})
	}
	s, err := open(0)
	if err != nil {
		t.Fatalf("open of a full record: %v", err)
	}
	wantCkpt(t, s, 1)
	s.Close()
	if s, err := open(1); !errors.Is(err, storage.ErrCorrupt) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("open of a delta record: %v, want ErrCorrupt", err)
	}
}

// TestLogStoreSupersede exercises the rollback pattern: delete the latest
// checkpoints top-down, re-save the same indices, and verify the re-saved
// content wins both live and across a reopen.
func TestLogStoreSupersede(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
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
	check(openTest(t, dir, Options{}))
}

// genFiles lists the generation files in dir.
func genFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gens []string
	for _, e := range ents {
		if _, ok := parseGenName(e.Name()); ok {
			gens = append(gens, e.Name())
		}
	}
	return gens
}

// TestLogStoreCompaction bounds the disk a long stream leaves: 10,000 saves
// that keep the newest four, as a collector bounded by n = 4 does, switch
// generations again and again, and after every save the directory holds at
// most two generation files, of at most the switch threshold plus one batch
// in all; the view and a reopen agree.
func TestLogStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	const floor = 4096
	s := openFloor(t, dir, Options{Sync: noSync}, floor)
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
	const n, keep = 10000, 4
	// The largest batch of this stream: a save and the tombstone riding it.
	oneBatch := int64(batchHdrLen + frameHdrLen + len(storage.AppendRecord(nil, ckpt(n))) + frameHdrLen + 8)
	for i := 0; i < n; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
		if i >= keep {
			if err := s.Delete(i - keep); err != nil {
				t.Fatal(err)
			}
		}
		files := genFiles(t, dir)
		var size int64
		for _, name := range files {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			size += fi.Size()
		}
		if len(files) > 2 || size > floor+oneBatch {
			t.Fatalf("after save %d: %d files, %d bytes; want at most 2 and %d", i, len(files), size, floor+oneBatch)
		}
	}
	switches := reg.Counter(obs.StorageCompactions).Value()
	if switches < 100 {
		t.Fatalf("%d switches in %d saves, want the stream to switch again and again", switches, n)
	}
	want := []int{n - keep, n - keep + 1, n - keep + 2, n - keep + 3}
	if got := s.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{})
	if got := r.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices after reopen = %v, want %v", got, want)
	}
	for _, idx := range want {
		wantCkpt(t, r, idx)
	}
}

// TestLogStoreTornTail truncates the newest generation mid-batch and checks
// replay comes back with exactly the prefix before that batch, counting the
// torn tail; a truncation in a generation a later one follows must refuse
// loudly.
func TestLogStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var commits []Commit
	s := openTest(t, dir, Options{
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
	gen := filepath.Join(dir, genFiles(t, dir)[0])
	whole, err := os.ReadFile(gen)
	if err != nil {
		t.Fatal(err)
	}

	// Cut inside the batch of op 5: ops 0..4 must survive, 5.. must vanish.
	cut := commits[5].Start + 7
	if err := os.WriteFile(gen, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{})
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
	r2 := openTest(t, dir, Options{})
	if r2.TornTails() != 0 {
		t.Fatalf("second reopen still torn: %d", r2.TornTails())
	}
	r2.Close()

	// Generation 1 was created only once generation 0 was whole, so a
	// mid-batch truncation of 0 beside it is not a crash shape: it must
	// refuse with storage.ErrCorrupt, not quietly drop a suffix.
	if err := os.WriteFile(gen, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, genHdrLen)
	copy(hdr, whole[:genHdrLen])
	hdr[8] = 1 // generation 1
	if err := os.WriteFile(genPath(dir, 1), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("mid-log truncation: err = %v, want ErrCorrupt", err)
	}
}

// TestLogStoreBitFlip flips single bits in every region of a synced log —
// generation header, batch header, payload — and requires the open to refuse
// with storage.ErrCorrupt every time: bit rot is never a torn tail.
func TestLogStoreBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
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
	gen := filepath.Join(dir, genFiles(t, dir)[0])
	whole, err := os.ReadFile(gen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	offsets := []int{0, 9, genHdrLen + 1, genHdrLen + 9, genHdrLen + batchHdrLen + 3, len(whole) - 2}
	for i := 0; i < 12; i++ {
		offsets = append(offsets, rng.Intn(len(whole)))
	}
	for _, off := range offsets {
		flipped := append([]byte(nil), whole...)
		flipped[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(gen, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, storage.ErrCorrupt) {
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
	s := openFloor(t, dir, Options{}, 8<<10)
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
	r := openTest(t, dir, Options{})
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

	gens := genFiles(t, dir)
	if len(gens) != 1 {
		t.Fatalf("want 1 generation, got %v", gens)
	}
	gen := filepath.Join(dir, gens[0])
	whole, err := os.ReadFile(gen)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	durableEnd := int64(genHdrLen)
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
		if err := os.WriteFile(gen, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
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
		if err := os.WriteFile(gen, whole, 0o644); err != nil {
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

	// dir, opt and floor reopen the log store. A reopened log counts Saved
	// from zero; resaved is what the oracle, rebuilt at the same moment,
	// counts for re-saving the live checkpoints.
	dir     string
	opt     Options
	floor   int64
	resaved int
}

func newStorePair(t *testing.T, opt Options, floor int64) *storePair {
	dir := t.TempDir()
	return &storePair{t: t, mem: storage.NewMemStore(), log: openFloor(t, dir, opt, floor), dir: dir, opt: opt, floor: floor}
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
		// The vector alone, read from the record's prefix — from the staging
		// copy while the record is in flight, the generation once durable.
		for _, st := range []storage.Store{p.mem, p.log} {
			dv, err := st.LoadDV(idx)
			if err != nil {
				p.t.Fatalf("%s: %T LoadDV(%d): %v", what, st, idx, err)
			}
			if !dv.Equal(want.DV) {
				p.t.Fatalf("%s: %T LoadDV(%d) = %v, Load gives %v", what, st, idx, dv, want.DV)
			}
		}
	}
	want := p.mem.Stats()
	want.Saved -= p.resaved
	if got := p.log.Stats(); got != want {
		p.t.Fatalf("%s: log Stats = %+v, mem = %+v", what, got, want)
	}
	return memErr == nil
}

// switchGen switches the log store to a new generation, as a save past the
// threshold does.
func (p *storePair) switchGen() {
	p.t.Helper()
	switchNow(p.t, p.log)
	p.apply("switch", func(storage.Store) error { return nil })
}

// reopen closes the log store and replays its directory. The oracle starts
// over too, from its live checkpoints, because a replay knows nothing of
// the counts and peaks of the closed store.
func (p *storePair) reopen() {
	p.t.Helper()
	if err := p.log.Close(); err != nil {
		p.t.Fatal(err)
	}
	p.log = openFloor(p.t, p.dir, p.opt, p.floor)
	mem := storage.NewMemStore()
	for _, idx := range p.mem.Indices() {
		cp, err := p.mem.Load(idx)
		if err != nil {
			p.t.Fatal(err)
		}
		if err := mem.Save(cp); err != nil {
			p.t.Fatal(err)
		}
	}
	p.mem, p.resaved = mem, mem.Stats().Saved
	p.apply("reopen", func(storage.Store) error { return nil })
}

func (p *storePair) save(cp storage.Checkpoint) bool {
	p.t.Helper()
	return p.apply(fmt.Sprintf("Save(%d)", cp.Index), func(st storage.Store) error { return st.Save(cp) })
}

func (p *storePair) delete(idx int) bool {
	p.t.Helper()
	return p.apply(fmt.Sprintf("Delete(%d)", idx), func(st storage.Store) error { return st.Delete(idx) })
}

// An op stream drives a storePair, or a save and a delete function, one op
// at a time: a byte names the op (modulo numOps) and the bytes after it are
// its arguments. TestStoreDifferential plays seeded streams and
// FuzzStoreDifferential arbitrary ones; a stream cut inside an op ends there.
const (
	opSave     = iota // 4 bytes, the vector: saves the next index
	opDelete          // 2 bytes: collects live checkpoint number arg modulo their count
	opRollback        // 1 byte: deletes the newest 1 + arg%2 of more live ones; the next save re-takes an index
	opAbsent          // deletes an index never saved, which both stores must refuse
	opSwitch          // switches the log to a new generation
	opReopen          // closes the log and replays it
	numOps
)

var opArgs = [numOps]int{opSave: 4, opDelete: 2, opRollback: 1}

// seededOps encodes a seeded stream of saves, random deletes, rollback-style
// delete-then-resave and refused deletes; with maint, it also switches the
// log's generation and reopens it, each about once in 40 steps.
func seededOps(seed int64, maint bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	var ops []byte
	live := 0
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			ops = append(ops, opSave, byte(rng.Intn(50)), byte(rng.Intn(50)), byte(rng.Intn(50)), byte(rng.Intn(50)))
			live++
		case r < 8 && live > 0:
			at := rng.Intn(live)
			ops = append(ops, opDelete, byte(at>>8), byte(at))
			live--
		case r == 8 && live > 2:
			k := 1 + rng.Intn(2)
			ops = append(ops, opRollback, byte(k-1))
			live -= k
		default:
			ops = append(ops, opAbsent)
		}
		if maint {
			switch rng.Intn(40) {
			case 0:
				ops = append(ops, opSwitch)
			case 1:
				ops = append(ops, opReopen)
			}
		}
	}
	return ops
}

// playOps drives the op stream through save and del, and through maint's
// switchGen and reopen when maint is given (they are skipped otherwise). An op
// with nothing to act on — a delete with no live checkpoint, a rollback that
// would leave none — is skipped too.
func playOps(t *testing.T, ops []byte, save func(storage.Checkpoint) bool, del func(int) bool, maint *storePair) {
	t.Helper()
	next := 0
	var live []int
	for len(ops) > 0 {
		op := ops[0] % numOps
		if len(ops) <= opArgs[op] {
			return
		}
		arg := ops[1 : 1+opArgs[op]]
		ops = ops[1+opArgs[op]:]
		switch op {
		case opSave:
			cp := ckpt(next)
			cp.DV = vclock.DV{int(arg[0]), int(arg[1]), int(arg[2]), int(arg[3])}
			mustAccept(t, save(cp))
			live = append(live, next)
			next++
		case opDelete:
			if len(live) == 0 {
				continue
			}
			at := (int(arg[0])<<8 | int(arg[1])) % len(live)
			mustAccept(t, del(live[at]))
			live = slices.Delete(live, at, at+1)
		case opRollback:
			k := 1 + int(arg[0])%2
			if len(live) <= k {
				continue
			}
			for range k {
				mustAccept(t, del(live[len(live)-1]))
				live = live[:len(live)-1]
			}
			next = live[len(live)-1] + 1
		case opAbsent:
			if del(next + 100) {
				t.Fatalf("delete of the absent index %d accepted", next+100)
			}
		case opSwitch:
			if maint != nil {
				maint.switchGen()
			}
		case opReopen:
			if maint != nil {
				maint.reopen()
			}
		}
	}
}

// keepOps encodes n saves, each followed, once keep are live, by the delete
// of the oldest: the stream of a collector bounded by n = keep.
func keepOps(n, keep int) []byte {
	var ops []byte
	for i := 0; i < n; i++ {
		ops = append(ops, opSave, byte(i), byte(i>>8), 1, 2)
		if i >= keep {
			ops = append(ops, opDelete, 0, 0)
		}
	}
	return ops
}

func mustAccept(t *testing.T, ok bool) {
	t.Helper()
	if !ok {
		t.Fatal("op refused by both stores, want accepted")
	}
}

// TestStoreDifferential holds the log store to MemStore's behaviour, op by
// op, with no case of its own: interior deletes, the re-save of a deleted
// interior index, then a seeded stream of saves, random deletes,
// rollback-style delete-then-resave and, on generations that switch from
// three records on, a forced switch and a close and reopen. The CI
// determinism lane runs this as the storage differential.
func TestStoreDifferential(t *testing.T) {
	// sparse changes one entry per checkpoint.
	sparse := func(idx int) storage.Checkpoint {
		cp := ckpt(idx)
		cp.DV = vclock.New(16)
		cp.DV[0] = idx
		return cp
	}

	t.Run("interior deletes", func(t *testing.T) {
		p := newStorePair(t, Options{}, 2048)
		const n = 24
		for i := 0; i < n; i++ {
			mustAccept(t, p.save(sparse(i)))
		}
		for i := 0; i < n; i += 3 {
			mustAccept(t, p.delete(i))
		}
		if st := p.log.Stats(); st.Peak != n || st.Live != n-(n+2)/3 {
			t.Fatalf("Stats = %+v, want Peak=%d Live=%d", st, n, n-(n+2)/3)
		}
	})

	t.Run("resave of a deleted interior index", func(t *testing.T) {
		p := newStorePair(t, Options{}, 2048)
		for i := 0; i < 4; i++ {
			mustAccept(t, p.save(sparse(i)))
		}
		mustAccept(t, p.delete(0)) // 1..3 stay live
		if p.delete(0) {
			t.Fatal("double delete accepted")
		}
		mustAccept(t, p.save(sparse(0))) // a deleted index is free at once
		mustAccept(t, p.delete(1))
		mustAccept(t, p.delete(3)) // rollback: drop the top index, take it again
		resaved := sparse(3)
		resaved.State = []byte("again")
		mustAccept(t, p.save(resaved))
	})

	// Generations that switch from three records on, so that switches fall
	// between a rollback's deletes and its re-save, and between a save and
	// the tombstone that kills it. Twenty streams.
	t.Run("seeded stream", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				p := newStorePair(t, Options{}, genHdrLen+3*115)
				playOps(t, seededOps(seed, true), p.save, p.delete, p)
			})
		}
	})

	// The same stream with the log store's saves staged: held to MemStore op
	// by op the instant Save returns, while the record is not yet durable —
	// and, each save awaited through the callback before the next op (which
	// is all a waiting Save does), to a twin log store that waits in Save:
	// the two leave the same bytes on disk.
	t.Run("staged saves", func(t *testing.T) {
		dir, twinDir := t.TempDir(), t.TempDir()
		p := &storePair{t: t, mem: storage.NewMemStore(), log: openFloor(t, dir, Options{}, 2048)}
		twin := openFloor(t, twinDir, Options{}, 2048)
		w := newDurableWaiter()
		p.log.NotifyDurable(w.notify)
		playOps(t, seededOps(7, false), func(cp storage.Checkpoint) bool {
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
		}, nil)
		switchNow(t, p.log)
		switchNow(t, twin)
		if got, want := p.log.Staged(), uint64(p.log.Stats().Saved); got != want {
			t.Fatalf("Staged() = %d after %d saves", got, want)
		}
		if err := p.log.Close(); err != nil {
			t.Fatal(err)
		}
		if err := twin.Close(); err != nil {
			t.Fatal(err)
		}
		gens := genFiles(t, dir)
		if !reflect.DeepEqual(gens, genFiles(t, twinDir)) || len(gens) != 1 {
			t.Fatalf("generations %v, twin %v; want the same one", gens, genFiles(t, twinDir))
		}
		for _, name := range gens {
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

	// A stream that keeps the newest four, on generations that switch from
	// 512 bytes on, saves staged: the after-every-op Loads meet staged
	// records, the generation the committer is appending to, and records a
	// switch rewrote after it closed the old generation's descriptor and the
	// committer removed the file. A last view comparison once a switch is
	// durable covers the rewritten records for certain.
	t.Run("churn", func(t *testing.T) {
		reg := obs.NewRegistry()
		p := &storePair{t: t, mem: storage.NewMemStore(), log: openFloor(t, t.TempDir(), Options{}, 512)}
		p.log.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
		p.log.NotifyDurable(newDurableWaiter().notify)
		playOps(t, keepOps(200, 4), p.save, p.delete, nil)
		awaitSwitch(t, reg)
		p.apply("view after a switch", func(storage.Store) error { return nil })
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

// TestLoadDVReadsThePrefix pins what LoadDV reads of a record: its prefix,
// from the staging copy while the record's flush is in flight and from the
// generation once it is durable — never a state byte, so a durable record whose
// state is cut off the device still gives its vector, while Load fails on
// it — and that the prefix gets the checks Load makes of the whole record: a
// bad header fails both with ErrCorrupt.
func TestLoadDVReadsThePrefix(t *testing.T) {
	dir := t.TempDir()
	var gate sync.Mutex // held: flushes sit in Sync
	s := openTest(t, dir, Options{Sync: func(*os.File) error {
		gate.Lock()
		gate.Unlock()
		return nil
	}})
	w := newDurableWaiter()
	s.NotifyDurable(w.notify)
	big := func(idx int) storage.Checkpoint {
		cp := ckpt(idx)
		cp.State = bytes.Repeat([]byte{byte(idx)}, 4096)
		return cp
	}
	wantDV := func(idx int) {
		t.Helper()
		dv, err := s.LoadDV(idx)
		if err != nil || !dv.Equal(big(idx).DV) {
			t.Fatalf("LoadDV(%d) = %v, %v, want %v", idx, dv, err, big(idx).DV)
		}
	}

	gate.Lock()
	for i := 0; i < 2; i++ {
		if err := s.Save(big(i)); err != nil { // staged; the flush is stuck
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	staged := s.recs[0].pending != nil && s.recs[1].pending != nil
	s.mu.Unlock()
	if !staged {
		t.Fatal("a record is durable with its flush held: the staged read is not exercised")
	}
	wantDV(0)
	wantDV(1)
	gate.Unlock()
	if err := w.await(2); err != nil {
		t.Fatal(err)
	}
	wantDV(0)
	wantDV(1)

	// Cut record 1's state off the device and break record 0's magic.
	s.mu.Lock()
	r0, r1 := s.recs[0], s.recs[1]
	s.mu.Unlock()
	if r1.off < r0.off {
		t.Fatalf("records at %d and %d, want 1 after 0", r0.off, r1.off)
	}
	f, err := os.OpenFile(genPath(dir, genOf(s)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(r1.off + int64(r1.size-r1.stateLen)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, r0.off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantDV(1)
	if _, err := s.Load(1); err == nil {
		t.Fatal("Load of a record whose state was cut off succeeded")
	}
	if _, err := s.LoadDV(0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("LoadDV of a record with a bad magic: %v, want ErrCorrupt", err)
	}
	if _, err := s.Load(0); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Load of a record with a bad magic: %v, want ErrCorrupt", err)
	}
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
	s := openTest(t, dir, Options{Sync: func(*os.File) error {
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
	for len(flushing) > 0 {
		<-flushing // the directory sync that named the first generation
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
	for _, name := range genFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := openTest(t, img, Options{})
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
	r2 := openTest(t, dir, Options{})
	if got, want := r2.Indices(), []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened Indices = %v, want %v", got, want)
	}
}

// TestNoGoroutineLeakAfterStoreClose guards Close's promises: after saves,
// reads of every record, deletes, switches and a trailing batch of staged
// tombstones, the committer is gone when it returns (the goroutine count is
// back at its pre-Open value), so is every descriptor the store opened — the
// read descriptors of the generations a switch left and of the current one,
// the write handles, the directory's (the descriptor count is back at its
// pre-Open value) — closing again is a no-op returning nil (the engines that
// own a store and the callers that opened it may both close), and later
// operations fail.
func TestNoGoroutineLeakAfterStoreClose(t *testing.T) {
	// With the collector off, no *os.File finalizer can close a descriptor
	// the store forgot (a switch leaving a generation without closing it).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base, baseFDs := runtime.NumGoroutine(), leakcheck.FDs(t)
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), Options{Sync: noSync})
	if err != nil {
		t.Fatal(err)
	}
	s.floor = 512 // before any op: the committer does not read it
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 0)
	// Each record is read back once durable, so every generation has had a
	// read descriptor. Each delete rides the save that follows it, the
	// stream keeps the newest four so the generation switches from 512 bytes
	// on, and the tombstones of 46..48 are still staged when Close arrives.
	for i := 0; i < 50; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
		wantCkpt(t, s, i)
		if i >= 4 {
			if err := s.Delete(i - 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	awaitSwitch(t, reg)
	for d := 46; d < 49; d++ {
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

// awaitSwitch waits until the store reporting to reg has made a switch
// durable.
func awaitSwitch(t *testing.T, reg *obs.Registry) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(obs.StorageCompactions).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the store never switched generations")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadDescriptorsBoundedBySegments: a thousand Loads spread over every
// live record, across generation switches, leave at most two descriptors
// open — the one read descriptor the store keeps on the current generation
// and the committer's write handle; a read reuses the kept descriptor
// instead of opening the file — and Close releases them all.
func TestReadDescriptorsBoundedBySegments(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in TestNoGoroutineLeakAfterStoreClose
	baseFDs := leakcheck.FDs(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: noSync})
	if err != nil {
		t.Fatal(err)
	}
	s.floor = 1024 // before any op: the committer does not read it
	const n, keep = 120, 8
	before := leakcheck.FDs(t)
	for i := 0; i < n; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
		if i >= keep {
			if err := s.Delete(i - keep); err != nil {
				t.Fatal(err)
			}
		}
		wantCkpt(t, s, i-i%keep)
	}
	if g := genOf(s); g < 3 {
		t.Fatalf("generation %d after %d saves, want several switches", g, n)
	}
	for k := 0; k < 1000; k++ {
		wantCkpt(t, s, n-keep+k%keep)
	}
	if held := leakcheck.FDs(t) - before; held < 1 || held > 2 {
		t.Fatalf("1000 loads hold %d descriptors, want 1..2", held)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.SettleFDs(t, baseFDs)
}

// TestLoadsRaceCommitterAndCompactor runs readers against a writer on
// generations that switch from 512 bytes on, so a Load meets a staged
// record, the generation the committer appends to, or a record a switch
// has rewritten, whose old generation's descriptor it closed and whose file
// the committer removed. The writer keeps every fourth checkpoint and
// deletes the rest, so switches keep coming; every Load of a kept
// checkpoint must succeed with its bytes. Its subject is the read path's
// locking: the race lane runs it under the detector, the flake lane at
// GOMAXPROCS 1, 2 and 4. (The name predates generations: switches stand
// where the compactor stood.)
func TestLoadsRaceCommitterAndCompactor(t *testing.T) {
	reg := obs.NewRegistry()
	s := openFloor(t, t.TempDir(), Options{Sync: noSync}, 512)
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
	if reg.Counter(obs.StorageCompactions).Value() == 0 {
		t.Fatal("the writer never switched generations")
	}
}

// TestLogStoreObsMetrics checks the log backend reports through the obs
// registry: batch sizes, commit latency, live ratio, and switches.
func TestLogStoreObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := openFloor(t, t.TempDir(), Options{}, 1024)
	s.SetObs(obs.StoreMetricsFrom(reg), nil, 3)
	for i := 0; i < 30; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
		if i >= 3 {
			if err := s.Delete(i - 3); err != nil {
				t.Fatal(err)
			}
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
	awaitSwitch(t, reg)
	if got := reg.Gauge(obs.StorageLiveRatioPct).Value(); got < 0 || got > 100 {
		t.Fatalf("live ratio gauge = %d, want a percentage", got)
	}
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
		OnCommit: func(c Commit) { mu.Lock(); commits = append(commits, c); mu.Unlock() },
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
	r := openTest(t, dir, Options{})
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
	s := openTest(t, t.TempDir(), Options{Sync: func(*os.File) error {
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

// TestSaveAllocationBudget holds the steady-state Save+Delete cycle to no
// allocation at all: batch structs and their buffers come off the freelist,
// and the index holds its entries by value.
func TestSaveAllocationBudget(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Sync: noSync})
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
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("Save+Delete steady state: %v allocs/op, want 0", allocs)
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
	s := openTest(t, dir, Options{OnCommit: func(c Commit) {
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
	for _, name := range genFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := openTest(t, img, Options{})
	if got, want := r.Indices(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("crash image after the rollback's deletes reopens with %v, want %v", got, want)
	}
}

// TestSwitchSyncsFileAndDirectory records every Sync and commit of a store:
// the first generation's file and its directory are both synced before the
// first Save is acknowledged, and at a switch the tombstone staged in g
// commits to g, then generation g+1's file and the directory are synced —
// in either order, since the two flushes overlap, and with g still on disk
// — and only then is g removed, before the Save riding the switch is
// acknowledged.
func TestSwitchSyncsFileAndDirectory(t *testing.T) {
	dir := t.TempDir()
	var (
		mu     sync.Mutex
		events []string
	)
	record := func(what string) {
		_, err := os.Stat(genPath(dir, 0))
		mu.Lock()
		events = append(events, fmt.Sprintf("%s, generation 0 on disk: %v", what, err == nil))
		mu.Unlock()
	}
	// take returns the events so far, the two syncs of a first batch, which
	// run at once, in one order.
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		got := events
		events = nil
		for i := 0; i+1 < len(got); i++ {
			if strings.HasPrefix(got[i], "sync directory") && strings.HasPrefix(got[i+1], "sync gen-") {
				got[i], got[i+1] = got[i+1], got[i]
			}
		}
		return got
	}
	s := openTest(t, dir, Options{
		Sync: func(f *os.File) error {
			name := filepath.Base(f.Name())
			if f.Name() == dir {
				name = "directory"
			}
			record("sync " + name)
			return nil
		},
		OnCommit: func(c Commit) { record("commit " + c.File) },
	})
	if err := s.Save(ckpt(0)); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sync gen-00000000.log, generation 0 on disk: true",
		"sync directory, generation 0 on disk: true",
		"commit gen-00000000.log, generation 0 on disk: true",
	}
	if got := take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("first Save:\n got %q\nwant %q", got, want)
	}
	s.mu.Lock()
	s.floor = 1 // the 4 × live bytes rule alone: a switch once three quarters are dead
	s.mu.Unlock()
	for i := 1; genOf(s) == 0; i++ {
		take()
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(i - 1); err != nil {
			t.Fatal(err)
		}
	}
	want = []string{
		"sync gen-00000000.log, generation 0 on disk: true",
		"commit gen-00000000.log, generation 0 on disk: true",
		"sync gen-00000001.log, generation 0 on disk: true",
		"sync directory, generation 0 on disk: true",
		"commit gen-00000001.log, generation 0 on disk: false",
	}
	if got := take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the switching Save:\n got %q\nwant %q", got, want)
	}
}

// TestCrashImagesAcrossASwitch reopens the images a crash can leave while a
// switch is in flight, from the bytes on disk just after generation 1's
// first batch is written and synced and before anything is removed: (i)
// generation 1 cut at the start, the middle and one byte short of the end of
// its first batch reopens as generation 0's view, counting a torn tail and
// removing generation 1; (ii) the first batch complete beside an intact
// generation 0 reopens as generation 1's view and removes generation 0;
// (iii) a bit flipped inside the complete first batch is ErrCorrupt.
func TestCrashImagesAcrossASwitch(t *testing.T) {
	dir := t.TempDir()
	var (
		mu    sync.Mutex
		image map[string][]byte // the directory when generation 1's file is synced
		first Commit            // generation 1's first batch
	)
	s := openTest(t, dir, Options{
		Sync: func(f *os.File) error {
			if f.Name() != genPath(dir, 1) {
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			image = map[string][]byte{}
			for _, name := range genFiles(t, dir) {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					return err
				}
				image[name] = data
			}
			return nil
		},
		OnCommit: func(c Commit) {
			if c.File == genName(1) && c.Start == genHdrLen {
				mu.Lock()
				first = c
				mu.Unlock()
			}
		},
	})
	for i := 0; i < 10; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 1; idx < 8; idx++ {
		if err := s.Delete(idx); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Indices() // generation 0's view: its tombstones ride the switching Save
	s.mu.Lock()
	s.floor = 1 // the 4 × live bytes rule alone: three live records of ten
	s.mu.Unlock()
	if err := s.Save(ckpt(10)); err != nil {
		t.Fatal(err)
	}
	if genOf(s) != 1 {
		t.Fatalf("generation %d after the Save past the threshold, want 1", genOf(s))
	}
	after := s.Indices()
	mu.Lock()
	img, c := image, first
	mu.Unlock()
	if len(img) != 2 || c.End != int64(len(img[genName(1)])) {
		t.Fatalf("image %d files, first batch %+v: want both generations, the first batch whole", len(img), c)
	}

	reopen := func(what string, files map[string][]byte) (*LogStore, error) {
		t.Helper()
		d := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(d, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := Open(d, Options{})
		if err == nil {
			t.Cleanup(func() { r.Close() })
			if got := genFiles(t, d); len(got) != 1 {
				t.Fatalf("%s: reopened with files %v, want one generation", what, got)
			}
		}
		return r, err
	}
	whole := img[genName(1)]
	for _, cut := range []int64{c.Start, (c.Start + c.End) / 2, c.End - 1} {
		what := fmt.Sprintf("(i) generation 1 cut at %d", cut)
		r, err := reopen(what, map[string][]byte{genName(0): img[genName(0)], genName(1): whole[:cut]})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := r.Indices(); !reflect.DeepEqual(got, before) || r.TornTails() != 1 {
			t.Fatalf("%s: Indices %v, %d torn tails; want generation 0's %v and 1", what, got, r.TornTails(), before)
		}
		for _, idx := range before {
			wantCkpt(t, r, idx)
		}
	}
	r, err := reopen("(ii)", img)
	if err != nil {
		t.Fatalf("(ii) first batch complete: %v", err)
	}
	if got := r.Indices(); !reflect.DeepEqual(got, after) || r.TornTails() != 0 {
		t.Fatalf("(ii): Indices %v, %d torn tails; want generation 1's %v and 0", got, r.TornTails(), after)
	}
	for _, idx := range after {
		wantCkpt(t, r, idx)
	}
	for _, off := range []int64{c.Start + 3, c.Start + batchHdrLen + 7, (c.Start + c.End) / 2, c.End - 1} {
		flipped := append([]byte(nil), whole...)
		flipped[off] ^= 0x20
		if _, err := reopen("(iii)", map[string][]byte{genName(0): img[genName(0)], genName(1): flipped}); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("(iii) bit flipped at %d of the first batch: %v, want ErrCorrupt", off, err)
		}
	}
}

// TestResavedIndexStaysDeadAcrossSwitches is a rollback's trace: index 2 is
// saved, deleted, saved again and deleted again, with a switch and a reopen
// placed at every point of the trace in turn. However they fall, a reopen
// must not bring the rolled-back checkpoint back (the segmented log before
// generations did, once compaction dropped the last tombstone of an older
// copy).
func TestResavedIndexStaysDeadAcrossSwitches(t *testing.T) {
	type op struct {
		del bool
		idx int
	}
	trace := []op{{false, 0}, {false, 1}, {false, 2}, {true, 2}, {false, 2}, {true, 2}, {false, 3}, {true, 1}}
	want := []int{0, 3}
	for sw := 0; sw <= len(trace); sw++ {
		for re := sw; re <= len(trace); re++ {
			dir := t.TempDir()
			s := openTest(t, dir, Options{Sync: noSync})
			for i := 0; i <= len(trace); i++ {
				if i == sw {
					switchNow(t, s)
				}
				if i == re {
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = openTest(t, dir, Options{Sync: noSync})
				}
				if i == len(trace) {
					break
				}
				var err error
				if o := trace[i]; o.del {
					err = s.Delete(o.idx)
				} else {
					err = s.Save(ckpt(o.idx))
				}
				if err != nil {
					t.Fatalf("switch before op %d, reopen before op %d: op %d: %v", sw, re, i, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := openTest(t, dir, Options{}).Indices(); !reflect.DeepEqual(got, want) {
				t.Fatalf("switch before op %d, reopen before op %d: reopened with %v, want %v", sw, re, got, want)
			}
		}
	}
}
