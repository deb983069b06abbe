package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

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
	// SegmentBytes sizes log segments (default 1024, so a short stream still
	// spans several segments).
	SegmentBytes int64
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
// serially through a log store, then reopens crash images truncated at and
// inside every commit boundary plus bit-flipped images. Compaction is off,
// so the log holds one record per op in op order and the running sum of
// Commit.Records is the boundary map: commit k made exactly
// ops[:sum(Records[0..k])] durable.
func Torture(cfg TortureConfig) (TortureResult, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 48
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1024
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
	var commits []logstore.Commit
	s, err := logstore.Open(liveDir, logstore.Options{
		SegmentBytes: cfg.SegmentBytes,
		NoCompact:    true, // records must map 1:1 to ops
		OnCommit:     func(c logstore.Commit) { commits = append(commits, c) },
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
	durable := 0
	for _, c := range commits {
		durable += c.Records
	}
	if durable != len(ops) {
		return res, fmt.Errorf("torture: %d ops produced %d durable records in %d commits; Close must leave every op durable", len(ops), durable, len(commits))
	}
	segs, err := snapshotDir(liveDir)
	if err != nil {
		return res, err
	}

	// Crash images: with before ops durable ahead of commit k, a cut at
	// Start leaves ops[:before], a cut at End leaves ops[:before+Records],
	// and any cut between must behave exactly like Start — the batch, the
	// Save and the tombstones riding with it, is all-or-nothing.
	before := 0
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
			if err := writeLogImage(dir, segs, c.Seg, cut.at); err != nil {
				return res, err
			}
			res.Injections++
			r, err := logstore.Open(dir, logstore.Options{NoCompact: true})
			if err != nil {
				return res, fmt.Errorf("torture: commit %d cut %d@seg%d: truncation crash must rehydrate, got: %w", k, cut.at, c.Seg, err)
			}
			res.TornTails += r.TornTails()
			verr := checkView(r, viewAfter(ops, cut.want))
			r.Close()
			if verr != nil {
				return res, fmt.Errorf("torture: commit %d cut %d@seg%d: want ops[:%d]: %w", k, cut.at, c.Seg, cut.want, verr)
			}
			res.CleanPrefix++
			if err := os.RemoveAll(dir); err != nil {
				return res, err
			}
		}
	}

	// Bit-rot images: one flipped bit anywhere in the synced log must turn
	// the open into a loud storage.ErrCorrupt refusal, never a quiet
	// truncation — acknowledged data is at stake.
	segIDs := make([]int, 0, len(segs))
	for id := range segs {
		segIDs = append(segIDs, id)
	}
	sort.Ints(segIDs)
	for i := 0; i < cfg.BitFlips; i++ {
		id := segIDs[rng.Intn(len(segIDs))]
		data := segs[id]
		off := rng.Intn(len(data))
		bit := byte(1) << uint(rng.Intn(8))
		dir := filepath.Join(cfg.Dir, "img")
		flipped := append([]byte(nil), data...)
		flipped[off] ^= bit
		if err := writeLogImage(dir, segs, -1, 0); err != nil {
			return res, err
		}
		if err := os.WriteFile(filepath.Join(dir, segName(id)), flipped, 0o644); err != nil {
			return res, err
		}
		res.Injections++
		r, err := logstore.Open(dir, logstore.Options{NoCompact: true})
		if err == nil {
			r.Close()
			return res, fmt.Errorf("torture: bit flip seg %d offset %d bit %#x opened silently", id, off, bit)
		}
		if !errors.Is(err, storage.ErrCorrupt) {
			return res, fmt.Errorf("torture: bit flip seg %d offset %d: error is not ErrCorrupt: %w", id, off, err)
		}
		res.LoudRefusals++
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
	}
	return res, nil
}

func segName(id int) string { return fmt.Sprintf("seg-%08d.log", id) }

// writeLogImage materializes a crash image: every segment before cutSeg in
// full, cutSeg truncated at cut, later segments gone (a crash truncates the
// log suffix, not a middle). cutSeg −1 writes all segments in full.
func writeLogImage(dir string, segs map[int][]byte, cutSeg int, cut int64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for id, data := range segs {
		switch {
		case cutSeg >= 0 && id > cutSeg:
			continue
		case id == cutSeg:
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dir, segName(id)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// snapshotDir reads every segment file into memory, keyed by segment id.
func snapshotDir(dir string) (map[int][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segs := make(map[int][]byte)
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, "seg-%d.log", &id); err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		segs[id] = data
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("torture: live store left no segments in %s", dir)
	}
	return segs, nil
}
