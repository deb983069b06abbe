package node

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// recyclingDriver is the smallest engine that gives entry buffers back: the
// test hands a consumed piggyback to recycle, the next Send draws it again.
type recyclingDriver struct{ free [][]Entry }

func (d *recyclingDriver) CloneDV(src vclock.DV) vclock.DV   { return src.Clone() }
func (d *recyclingDriver) OnKernelCheckpoint(int, int, bool) {}

func (d *recyclingDriver) EntryBuf() []Entry {
	k := len(d.free)
	if k == 0 {
		return nil
	}
	buf := d.free[k-1]
	d.free = d.free[:k-1]
	return buf
}

func (d *recyclingDriver) recycle(pb Piggyback) { d.free = append(d.free, pb.Entries[:0]) }

func compressingKernel(t *testing.T, id, n int, d Driver) *Kernel {
	t.Helper()
	k, err := New(Config{ID: id, N: n, Store: storage.NewMemStore(), Compress: true, Driver: d})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestScanMatchesLogWalk is the equivalence the send-time fast path rests
// on. Over 1000 seeded histories — random interleavings of merges,
// checkpoints, sends and the occasional reset, at n = 4, 32 and 64, with
// uniform and repeat-pair destinations, long enough to cross trim many
// times — every send-time encode is computed three ways: by the log walk, by
// the per-entry scan, and from the definition (the entries that differ from
// a copy of the vector kept at the pair's previous message). All three, and
// whichever of the first two encode itself chose, must agree entry for
// entry, and the wire Ord must count the pair's encodes since the reset.
func TestScanMatchesLogWalk(t *testing.T) {
	scans, walks, trims := 0, 0, 0
	for seed := 0; seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := []int{4, 32, 64}[seed%3]
		repeatPair := seed%2 == 1
		const self = 0
		c := newCompressor(n)
		dv := vclock.New(n)
		dv[self] = 1
		c.note(self)
		lastSent := make([]vclock.DV, n) // the definition's per-destination copies
		ords := make([]int, n)
		var batch []int

		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < 40: // a delivery merges new information about some peers
				batch = batch[:0]
				for k := 1; k < n; k++ {
					if rng.Intn(n) < 1+rng.Intn(n) {
						dv[k] += 1 + rng.Intn(3)
						batch = append(batch, k)
					}
				}
				if len(batch) > 0 {
					c.note(batch...)
				}
			case r < 55: // a checkpoint advances the local entry
				dv[self]++
				c.note(self)
			case r < 56:
				c.reset()
				clear(lastSent)
				clear(ords)
			default:
				dest := 1 + rng.Intn(n-1)
				if repeatPair && rng.Intn(8) > 0 {
					dest = 1
				}
				var want []Entry
				for k, v := range dv {
					if (lastSent[dest] == nil && v != 0) || (lastSent[dest] != nil && v != lastSent[dest][k]) {
						want = append(want, Entry{K: k, V: v})
					}
				}
				if covered := c.sentPos[dest] - 1; covered >= c.resetPos {
					walk := c.walkLog(covered, dv, nil)
					scan := c.scanChanged(covered, dv, nil)
					if !slices.Equal(walk, want) || !slices.Equal(scan, want) {
						t.Fatalf("seed %d step %d →p%d: walk %v, scan %v, definition %v", seed, step, dest, walk, scan, want)
					}
					if c.pos()-covered >= n {
						scans++
					} else {
						walks++
					}
				}
				base := c.logBase
				got, ord, err := c.encode(dest, dv)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d →p%d: encode %v, definition %v", seed, step, dest, got, want)
				}
				if ord != ords[dest] {
					t.Fatalf("seed %d step %d →p%d: Ord %d, want %d", seed, step, dest, ord, ords[dest])
				}
				if c.logBase != base {
					trims++
				}
				ords[dest]++
				lastSent[dest] = append(lastSent[dest][:0], dv...)
			}
		}
	}
	if scans == 0 || walks == 0 || trims == 0 {
		t.Fatalf("histories took the scan %d times, the log walk %d times and trimmed %d times; all three must occur", scans, walks, trims)
	}
}

// TestDenseStateFailsLoudly pins that an index no slice can hold is an
// error, not a panic: the mesh validates a frame's sender, the in-process
// and simulator paths hand the kernel whatever they were given.
func TestDenseStateFailsLoudly(t *testing.T) {
	const n = 4
	k := compressingKernel(t, 0, n, nil)
	for _, p := range []int{-1, n, n + 7} {
		if err := k.comp.verifyArrival(p, 0); err == nil {
			t.Errorf("verifyArrival(from=%d) accepted an out-of-range sender", p)
		}
		if _, err := k.Deliver(Piggyback{Compressed: true, From: p}); err == nil {
			t.Errorf("Deliver(From=%d) accepted an out-of-range sender", p)
		}
		if err := k.DeliverBatch([]Piggyback{{Compressed: true, From: p}}, nil); err == nil {
			t.Errorf("DeliverBatch(From=%d) accepted an out-of-range sender", p)
		}
		if _, _, err := k.comp.encode(p, k.dv); err == nil {
			t.Errorf("encode(dest=%d) accepted an out-of-range destination", p)
		}
	}
	// None of the refusals consumed state: the first real message is still
	// the pair's message 0.
	pb, err := k.Send(1)
	if err != nil || pb.Ord != 0 {
		t.Fatalf("first send after refusals: Ord %d, err %v", pb.Ord, err)
	}
}

// TestResetLeavesNoStaleState checks the invariant ApplyLine relies on, by
// what the kernels do rather than what their slots hold (a reset leaves the
// stale values in place): after a recovery session's reset, the first
// message of every pair is the full nonzero set with Ord 0, and every
// receiver accepts Ord 0 from every source and refuses Ord 1 — over two
// reset cycles, so the second meets values the first cycle's traffic wrote
// after the first reset.
func TestResetLeavesNoStaleState(t *testing.T) {
	const n = 6
	ks := make([]*Kernel, n)
	for i := range ks {
		ks[i] = compressingKernel(t, i, n, nil)
	}
	for cycle := 0; cycle < 2; cycle++ {
		for round := 0; round < 3; round++ { // every pair in use, vectors moving
			for from, k := range ks {
				if _, err := k.Checkpoint(true); err != nil {
					t.Fatal(err)
				}
				for to := range ks {
					if to == from {
						continue
					}
					pb, err := k.Send(to)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := ks[to].Deliver(pb); err != nil {
						t.Fatalf("cycle %d: p%d→p%d: %v", cycle, from, to, err)
					}
				}
			}
		}
		for _, k := range ks {
			k.ResetCompression()
		}
		for from, k := range ks {
			// One entry changes after the reset; every pair must still get all.
			if _, err := k.Checkpoint(true); err != nil {
				t.Fatal(err)
			}
			for to := range ks {
				if to == from {
					continue
				}
				var want []Entry
				for e, v := range k.DVRef() {
					if v != 0 {
						want = append(want, Entry{K: e, V: v})
					}
				}
				pb, err := k.Send(to)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(pb.Entries, want) || pb.Ord != 0 {
					t.Fatalf("cycle %d: first post-reset message p%d→p%d: %v, Ord %d; want %v, Ord 0",
						cycle, from, to, pb.Entries, pb.Ord, want)
				}
				late := pb
				late.Ord = 1
				if _, err := ks[to].Deliver(late); err == nil {
					t.Fatalf("cycle %d: p%d accepted Ord 1 as p%d's first post-reset message", cycle, to, from)
				}
				if _, err := ks[to].Deliver(pb); err != nil {
					t.Fatalf("cycle %d: p%d refused p%d's first post-reset message: %v", cycle, to, from, err)
				}
			}
		}
		// And the pair is incremental again: Ord 1, then Ord 2 carrying only
		// the one entry that moved since Ord 1.
		for ord := 1; ord <= 2; ord++ {
			if _, err := ks[0].Checkpoint(true); err != nil {
				t.Fatal(err)
			}
			pb, err := ks[0].Send(1)
			if err != nil || pb.Ord != ord || (ord == 2 && len(pb.Entries) != 1) {
				t.Fatalf("cycle %d: post-reset message %d: %v, Ord %d, err %v", cycle, ord, pb.Entries, pb.Ord, err)
			}
			if _, err := ks[1].Deliver(pb); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestUnsentSnapshotDoesNotPinTheLog: a snapshot a compressing kernel takes
// for a message nobody receives is never encoded, so it must not hold the
// change log back — 3,000 changes later the log is still trimmed to within
// a few trim steps of the pair's covered position.
func TestUnsentSnapshotDoesNotPinTheLog(t *testing.T) {
	const n = 2
	a, b := compressingKernel(t, 0, n, nil), compressingKernel(t, 1, n, nil)
	a.SendSnapshot()
	for i := 0; i < 3000; i++ {
		if _, err := a.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
		pb, err := a.Send(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Deliver(pb); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(a.comp.log); got >= 2*256 {
		t.Fatalf("change log holds %d entries after 3000 sends; a snapshot nobody encodes pins it", got)
	}
}

// TestCompressedSendAllocatesNothing holds the steady state to zero
// allocations: dense uniform traffic (most of the vector moves between two
// messages of a pair, the shape that takes the scan) through a driver that
// recycles the entry buffers, and the recovery session's reset.
func TestCompressedSendAllocatesNothing(t *testing.T) {
	const n = 32
	d := &recyclingDriver{}
	k := compressingKernel(t, 0, n, d)
	changed := make([]int, 0, n)
	dest := 0
	step := func() {
		changed = changed[:0]
		for p := 1; p < n; p++ {
			if p%4 != dest%4 {
				k.dv[p]++
				changed = append(changed, p)
			}
		}
		k.comp.note(changed...)
		dest = dest%(n-1) + 1
		pb, err := k.Send(dest)
		if err != nil {
			t.Fatal(err)
		}
		d.recycle(pb)
	}
	for i := 0; i < 4*n; i++ {
		step() // sync every pair, grow the log and the buffers to their steady size
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Errorf("steady-state compressed Send: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, k.comp.reset); allocs != 0 {
		t.Errorf("compressor.reset: %v allocs/op, want 0", allocs)
	}
}

// TestEntryBufferIsNotSizedByN pins the memory rule: a one-entry message at
// n = 1024 comes back in a small buffer, with or without a freelist — the
// buffer is grown to what the message carries, never pre-sized to n.
func TestEntryBufferIsNotSizedByN(t *testing.T) {
	const n = 1024
	for name, d := range map[string]*recyclingDriver{"no driver": nil, "recycling": {}} {
		var drv Driver
		if d != nil {
			drv = d
		}
		k := compressingKernel(t, 0, n, drv)
		for i := 0; i < 8; i++ {
			if _, err := k.Checkpoint(true); err != nil {
				t.Fatal(err)
			}
			pb, err := k.Send(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(pb.Entries) != 1 || cap(pb.Entries) >= 64 {
				t.Fatalf("%s: message %d carries %d entries in a buffer of capacity %d; want 1 entry, capacity < 64",
					name, i, len(pb.Entries), cap(pb.Entries))
			}
			if d != nil {
				d.recycle(pb)
			}
		}
	}
}
