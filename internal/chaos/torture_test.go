package chaos

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
	"repro/internal/vclock"
)

// TestTortureLogStore runs the full crash-torture matrix against the
// segmented log backend: truncation images at and inside every commit
// boundary must rehydrate the exact acknowledged prefix, and bit-flip
// images must refuse loudly. This is the CI torture lane's main dish.
func TestTortureLogStore(t *testing.T) {
	res, err := Torture(TortureConfig{
		Dir:          t.TempDir(),
		Ops:          48,
		Seed:         1,
		SegmentBytes: 1024,
		BitFlips:     32,
	})
	if err != nil {
		t.Fatalf("%v (after %s)", err, res)
	}
	if res.CleanPrefix == 0 || res.LoudRefusals == 0 {
		t.Fatalf("matrix did not exercise both outcomes: %s", res)
	}
	if res.TornTails == 0 {
		t.Fatalf("no injection produced a torn tail: %s", res)
	}
	t.Logf("log torture: %s", res)
}

// TestTortureLogStoreSeeds varies the stream seed so the op mix (rollback
// positions, delete density, segment roll points) differs run to run while
// staying reproducible per seed.
func TestTortureLogStoreSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("torture matrix sweep is not a -short test")
	}
	for seed := int64(2); seed <= 5; seed++ {
		res, err := Torture(TortureConfig{
			Dir:          t.TempDir(),
			Ops:          40,
			Seed:         seed,
			SegmentBytes: 768,
			BitFlips:     8,
		})
		if err != nil {
			t.Fatalf("seed %d: %v (after %s)", seed, err, res)
		}
	}
}

// TestLostTombstoneIsRecollected is the safety argument behind the log
// store's staged deletes, end to end: a crash that cuts the log before a
// trailing batch of tombstones reopens with the collected checkpoints
// resurrected, and the Rollback every restart runs (Algorithm 3 rebuilds UC
// from whatever survived) eliminates them again — the store is back within
// the n-checkpoint bound with clean reference counts.
func TestLostTombstoneIsRecollected(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	liveDir := filepath.Join(dir, "live")
	var commits []logstore.Commit
	ls, err := logstore.Open(liveDir, logstore.Options{
		NoCompact: true,
		OnCommit:  func(c logstore.Commit) { commits = append(commits, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.Config{
		ID: 0, N: n, Store: ls,
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:  func(self, nn int, st storage.Store) gc.Local { return core.New(self, nn, st) },
	}
	k, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// New information about a rotating peer and a basic checkpoint every
	// fourth delivery, so peers pin different checkpoints; then two
	// checkpoints back to back. The second collects the first — nothing was
	// delivered in between, so no peer pins it — and no Save follows to carry
	// that tombstone. (What makes the first obsolete is recorded in the
	// second, so the crash loses the tombstone but not the reason for it.)
	peer := vclock.New(n)
	for i := 0; i < 32; i++ {
		peer[1+i%(n-1)]++
		if _, err := k.Deliver(node.Piggyback{DV: peer}); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if _, err := k.Checkpoint(true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := k.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	live := ls.Indices()
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash image: everything but the batch Close committed.
	segs, err := snapshotDir(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	tail := commits[len(commits)-1]
	imgDir := filepath.Join(dir, "img")
	if err := writeLogImage(imgDir, segs, tail.Seg, tail.Start); err != nil {
		t.Fatal(err)
	}
	re, err := logstore.Open(imgDir, logstore.Options{NoCompact: true})
	if err != nil {
		t.Fatalf("the image cut before the tombstone batch must reopen: %v", err)
	}
	defer re.Close()
	resurrected := re.Indices()
	if len(resurrected) != len(live)+tail.Records {
		t.Fatalf("reopened with %v; want the live view %v plus the %d checkpoints whose tombstones were cut",
			resurrected, live, tail.Records)
	}
	for _, idx := range live {
		if !slices.Contains(resurrected, idx) {
			t.Fatalf("live checkpoint %d missing from the reopened view %v", idx, resurrected)
		}
	}

	k.CrashVolatile()
	if err := k.Rehydrate(re); err != nil {
		t.Fatal(err)
	}
	if err := k.Rollback(k.LastStable(), nil); err != nil {
		t.Fatal(err)
	}
	after := re.Indices()
	if len(after) > n {
		t.Fatalf("after the restart's rollback the store retains %v, more than n = %d", after, n)
	}
	for _, idx := range after {
		if !slices.Contains(live, idx) {
			t.Fatalf("resurrected checkpoint %d survived the rollback (kept %v, live before the crash %v)", idx, after, live)
		}
	}
	if err := k.Collector().(*core.LGC).CheckRefCounts(); err != nil {
		t.Fatalf("reference counts after re-collection: %v", err)
	}
	if re.Stats().Collected != tail.Records {
		// The replayed tombstones are not counted; only the re-collection is.
		t.Fatalf("rollback collected %d checkpoints, want the %d resurrected ones", re.Stats().Collected, tail.Records)
	}
}
