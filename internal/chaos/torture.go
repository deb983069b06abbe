package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/storage"
	"repro/internal/storage/logstore"
)

// Torture mode is storage-level fault injection: where a chaos Run crashes
// processes and proves recovery *correctness*, Torture tears the stable
// store's own writes and proves crash *consistency*. A seeded op stream
// (saves, collections, rollback-style delete-then-resave) runs against the
// log store; then, for every commit boundary the store acknowledged, crash
// images are minted — the log truncated at and inside that boundary, bits
// flipped — and each image is reopened. The oracle admits exactly two
// outcomes: the open rehydrates the acknowledged prefix (every checkpoint
// the collector counted present, nothing unacknowledged partially present),
// or it refuses loudly with storage.ErrCorrupt. A silently wrong view fails
// the run.
//
// A collection is acknowledged as durable only by the next acknowledged
// Save or Close — its tombstone rides that batch — so the prefixes a crash
// may expose end at commit boundaries, not at every op: a cut before a
// batch of tombstones resurrects exactly the checkpoints those tombstones
// name, which the restart's Rollback collects again.

// TortureConfig parameterizes one torture matrix.
type TortureConfig struct {
	// Dir is the scratch directory the matrix builds its images under.
	Dir string
	// Ops is the length of the seeded op stream (default 48).
	Ops int
	// Seed makes the stream and the injection points reproducible.
	Seed int64
	// BitFlips is the number of single-bit corruption images (default 24).
	BitFlips int
}

// TortureResult tallies a passed matrix.
type TortureResult struct {
	Ops          int // operations in the stream
	Injections   int // crash/corruption images reopened
	CleanPrefix  int // opens that rehydrated a consistent prefix
	LoudRefusals int // opens that refused with storage.ErrCorrupt
	TornTails    int // torn tails the log replay truncated
}

func (r TortureResult) String() string {
	return fmt.Sprintf("ops=%d injections=%d clean-prefix=%d loud-refusals=%d torn-tails=%d",
		r.Ops, r.Injections, r.CleanPrefix, r.LoudRefusals, r.TornTails)
}

// tortureOp is one op of the stream; a delete names idx, a save carries cp.
type tortureOp struct {
	del bool
	idx int
	cp  storage.Checkpoint
}

// tortureOps generates the seeded stream: saves dominate, random
// collections thin the middle, and occasional rollbacks delete the top
// checkpoint and reuse its index — the one index-reuse pattern the
// middleware produces.
func tortureOps(rng *rand.Rand, n int) []tortureOp {
	var ops []tortureOp
	var live []int
	next := 0
	for len(ops) < n {
		r := rng.Intn(10)
		switch {
		case r < 6 || len(live) == 0:
			dv := make([]int, 4)
			for i := range dv {
				dv[i] = rng.Intn(64)
			}
			state := make([]byte, 8+rng.Intn(24))
			rng.Read(state)
			ops = append(ops, tortureOp{idx: next, cp: storage.Checkpoint{Process: 0, Index: next, DV: dv, State: state}})
			live = append(live, next)
			next++
		case r < 8:
			at := rng.Intn(len(live))
			ops = append(ops, tortureOp{del: true, idx: live[at]})
			live = append(live[:at], live[at+1:]...)
		default: // rollback: drop the top checkpoint, reuse its index
			idx := live[len(live)-1]
			ops = append(ops, tortureOp{del: true, idx: idx})
			live = live[:len(live)-1]
			next = idx
		}
	}
	return ops
}

// viewAfter replays the first k ops into the expected live view.
func viewAfter(ops []tortureOp, k int) map[int]storage.Checkpoint {
	view := make(map[int]storage.Checkpoint)
	for _, op := range ops[:k] {
		if op.del {
			delete(view, op.idx)
		} else {
			view[op.idx] = op.cp
		}
	}
	return view
}

// checkView compares a reopened store against an expected view, exactly:
// same indices, same vectors, same states. Anything else is the silent
// inconsistency torture exists to catch.
func checkView(st storage.Store, want map[int]storage.Checkpoint) error {
	idxs := st.Indices()
	if len(idxs) != len(want) {
		return fmt.Errorf("view has %d checkpoints, want %d (indices %v)", len(idxs), len(want), idxs)
	}
	for _, idx := range idxs {
		wcp, ok := want[idx]
		if !ok {
			return fmt.Errorf("unexpected checkpoint %d rehydrated", idx)
		}
		got, err := st.Load(idx)
		if err != nil {
			return fmt.Errorf("Load(%d): %w", idx, err)
		}
		if !got.DV.Equal(wcp.DV) || !bytes.Equal(got.State, wcp.State) {
			return fmt.Errorf("checkpoint %d rehydrated with wrong content", idx)
		}
	}
	return nil
}

// Torture runs the matrix against the log store (MemStore has no stable
// bytes to tear) and returns its tally; the first oracle violation aborts
// with an error naming the image that broke. It drives the op stream
// serially through a log store, snapshotting the directory's files as each
// commit leaves them, then reopens crash images — the files as the commit
// before left them, with the one the commit names truncated at and inside
// its boundaries — plus bit-flipped images of the final files. A stream
// this short never fills a generation, so no switch rewrites the live set:
// the log holds one record per op in op order and the running sum of
// Commit.Records is the boundary map: commit k made exactly
// ops[:sum(Records[0..k])] durable.
func Torture(cfg TortureConfig) (TortureResult, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 48
	}
	if cfg.BitFlips <= 0 {
		cfg.BitFlips = 24
	}
	if cfg.Dir == "" {
		return TortureResult{}, fmt.Errorf("torture: Dir is required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := tortureOps(rng, cfg.Ops)
	res := TortureResult{Ops: len(ops)}
	liveDir := filepath.Join(cfg.Dir, "live")
	var (
		commits []logstore.Commit
		snaps   []map[string][]byte // snaps[k]: the files as commit k left them
		snapErr error
	)
	s, err := logstore.Open(liveDir, logstore.Options{
		OnCommit: func(c logstore.Commit) {
			files, err := snapshotDir(liveDir)
			if err != nil && snapErr == nil {
				snapErr = err
			}
			commits = append(commits, c)
			snaps = append(snaps, files)
		},
	})
	if err != nil {
		return res, fmt.Errorf("torture: open live store: %w", err)
	}
	for i, op := range ops {
		if op.del {
			err = s.Delete(op.idx)
		} else {
			err = s.Save(op.cp)
		}
		if err != nil {
			return res, fmt.Errorf("torture: op %d: %w", i, err)
		}
	}
	if err := s.Close(); err != nil {
		return res, fmt.Errorf("torture: close live store: %w", err)
	}
	if snapErr != nil {
		return res, snapErr
	}
	durable := 0
	for _, c := range commits {
		durable += c.Records
	}
	if durable != len(ops) {
		return res, fmt.Errorf("torture: %d ops produced %d durable records in %d commits; Close must leave every op durable", len(ops), durable, len(commits))
	}
	final := snaps[len(snaps)-1] // Close committed last: the files as they stay

	// Crash images: with before ops durable ahead of commit k, a cut at
	// Start leaves ops[:before], a cut at End leaves ops[:before+Records],
	// and any cut between must behave exactly like Start — the batch, the
	// Save and the tombstones riding with it, is all-or-nothing.
	before := 0
	prev := map[string][]byte{}
	for k, c := range commits {
		span := c.End - c.Start
		cuts := []struct {
			at   int64
			want int // ops surviving
		}{
			{c.Start, before},
			{c.Start + 1 + int64(rng.Intn(int(span-1))), before},
			{c.End - 1, before},
			{c.End, before + c.Records},
		}
		before += c.Records
		for _, cut := range cuts {
			dir := filepath.Join(cfg.Dir, "img")
			if err := writeLogImage(dir, prev, c.File, snaps[k][c.File][:cut.at]); err != nil {
				return res, err
			}
			res.Injections++
			r, err := logstore.Open(dir, logstore.Options{})
			if err != nil {
				return res, fmt.Errorf("torture: commit %d cut %s@%d: truncation crash must rehydrate, got: %w", k, c.File, cut.at, err)
			}
			res.TornTails += r.TornTails()
			verr := checkView(r, viewAfter(ops, cut.want))
			r.Close()
			if verr != nil {
				return res, fmt.Errorf("torture: commit %d cut %s@%d: want ops[:%d]: %w", k, c.File, cut.at, cut.want, verr)
			}
			res.CleanPrefix++
			if err := os.RemoveAll(dir); err != nil {
				return res, err
			}
		}
		prev = snaps[k]
	}

	// Bit-rot images: one flipped bit anywhere in the synced log must turn
	// the open into a loud storage.ErrCorrupt refusal, never a quiet
	// truncation — acknowledged data is at stake.
	names := slices.Sorted(maps.Keys(final))
	for i := 0; i < cfg.BitFlips; i++ {
		name := names[rng.Intn(len(names))]
		data := final[name]
		off := rng.Intn(len(data))
		bit := byte(1) << uint(rng.Intn(8))
		dir := filepath.Join(cfg.Dir, "img")
		flipped := append([]byte(nil), data...)
		flipped[off] ^= bit
		if err := writeLogImage(dir, final, name, flipped); err != nil {
			return res, err
		}
		res.Injections++
		r, err := logstore.Open(dir, logstore.Options{})
		if err == nil {
			r.Close()
			return res, fmt.Errorf("torture: bit flip %s offset %d bit %#x opened silently", name, off, bit)
		}
		if !errors.Is(err, storage.ErrCorrupt) {
			return res, fmt.Errorf("torture: bit flip %s offset %d: error is not ErrCorrupt: %w", name, off, err)
		}
		res.LoudRefusals++
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
	}
	return res, nil
}

// writeLogImage materializes a crash image in dir: every file of files as
// it is, except name, which holds data instead.
func writeLogImage(dir string, files map[string][]byte, name string, data []byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for n, d := range files {
		if n != name {
			if err := os.WriteFile(filepath.Join(dir, n), d, 0o644); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// snapshotDir reads every file of dir into memory, keyed by name.
func snapshotDir(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = data
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("torture: live store left no files in %s", dir)
	}
	return files, nil
}
