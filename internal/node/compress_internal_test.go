package node

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// recyclingDriver is the smallest engine that gives piggyback buffers back:
// the test hands a consumed piggyback to Recycle, and the next Send draws
// its entry buffer, or its snapshot, from the pool again.
type recyclingDriver struct{ Pool }

func (d *recyclingDriver) OnKernelCheckpoint(int, int, bool) {}

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
// uniform and repeat-pair destinations — every send-time encode is computed
// three ways: by the recency-list walk, by the per-entry scan, and from the
// definition (the entries that differ from a copy of the vector kept at the
// pair's previous message). All three, and whichever of the first two
// encode itself chose, must agree entry for entry — or, when the definition
// holds more than half the vector, encode must report the whole vector as
// the smaller form — and the wire Ord must count the pair's encodes since
// the reset.
func TestScanMatchesLogWalk(t *testing.T) {
	scans, walks, denses := 0, 0, 0
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
					walk := c.walkRecent(covered, dv, nil, n)
					scan := c.scanChanged(covered, dv, nil, n)
					if !slices.Equal(walk, want) || !slices.Equal(scan, want) {
						t.Fatalf("seed %d step %d →p%d: walk %v, scan %v, definition %v", seed, step, dest, walk, scan, want)
					}
					if c.pos-covered >= n {
						scans++
					} else {
						walks++
					}
				}
				got, dense, ord, err := c.encode(dest, dv)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if dense != (2*len(want) > n) || (!dense && !slices.Equal(got, want)) {
					t.Fatalf("seed %d step %d →p%d: encode %v (dense %v), definition %v", seed, step, dest, got, dense, want)
				}
				if dense {
					denses++
				}
				if ord != ords[dest] {
					t.Fatalf("seed %d step %d →p%d: Ord %d, want %d", seed, step, dest, ord, ords[dest])
				}
				ords[dest]++
				lastSent[dest] = append(lastSent[dest][:0], dv...)
			}
		}
	}
	if scans == 0 || walks == 0 || denses == 0 {
		t.Fatalf("histories took the scan %d times, the list walk %d times and the whole vector %d times; all must occur",
			scans, walks, denses)
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
		if _, _, _, err := k.comp.encode(p, k.dv); err == nil {
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
// message of every pair carries every nonzero entry — as entries, or as the
// whole vector when that is the smaller form — with Ord 0, and every
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
				got := pb.Entries
				if pb.DV != nil {
					if !pb.DV.Equal(k.DVRef()) || len(pb.Entries) != 0 {
						t.Fatalf("cycle %d: first post-reset message p%d→p%d: vector %v and entries %v; want %v alone",
							cycle, from, to, pb.DV, pb.Entries, k.DVRef())
					}
					got = nil
					for e, v := range pb.DV {
						if v != 0 {
							got = append(got, Entry{K: e, V: v})
						}
					}
				}
				if !slices.Equal(got, want) || pb.Ord != 0 {
					t.Fatalf("cycle %d: first post-reset message p%d→p%d: %v, Ord %d; want %v, Ord 0",
						cycle, from, to, got, pb.Ord, want)
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

// TestCompressorStateIsSevenN pins the encoder's memory bound: its int
// state is the 7n it was built with, whatever the traffic. One destination
// synced once and then quiet, 100,000 changes sent to another, and a
// snapshot nobody encodes leave every int slice of the compressor at its
// construction length and capacity — nothing grows with the changes a
// quiet destination has not been sent — and its encode buffer at the n/2+1
// entries it was built with.
func TestCompressorStateIsSevenN(t *testing.T) {
	const n = 3
	a := compressingKernel(t, 0, n, nil)
	b, c := compressingKernel(t, 1, n, nil), compressingKernel(t, 2, n, nil)
	send := func(dest int, to *Kernel) {
		t.Helper()
		pb, err := a.Send(dest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := to.Deliver(pb); err != nil {
			t.Fatal(err)
		}
	}
	send(2, c) // p2 is synced once, then never sent to again
	a.SendSnapshot()
	for i := 0; i < 100_000; i++ {
		if _, err := a.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
		send(1, b)
	}
	count, lens, caps := 0, 0, 0
	v := reflect.ValueOf(a.comp).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == reflect.TypeOf([]int(nil)) {
			count++
			lens += f.Len()
			caps += f.Cap()
		}
	}
	if count != 7 || lens != 7*n || caps != 7*n {
		t.Fatalf("compressor holds %d int slices of total length %d and capacity %d after 100,000 changes; want 7 slices, %d and %d",
			count, lens, caps, 7*n, 7*n)
	}
	if got := cap(a.comp.entBuf); got != n/2+1 {
		t.Fatalf("the encode buffer grew to %d entries; an encode builds at most n/2+1 = %d", got, n/2+1)
	}
}

// TestCompressedSendAllocatesNothing holds the steady state to zero
// allocations: uniform traffic (every pair used rarely, so an encode takes
// the scan) through a driver that recycles the entry buffers and snapshots,
// in both forms — most of the vector moving between two messages of a pair
// (the whole vector ships) and two entries moving (their entries ship) —
// and the recovery session's reset.
func TestCompressedSendAllocatesNothing(t *testing.T) {
	const n = 32
	d := &recyclingDriver{}
	k := compressingKernel(t, 0, n, d)
	changed := make([]int, 0, n)
	dest, wholes, sends := 0, 0, 0
	step := func(wide bool) {
		changed = changed[:0]
		for p := 1; p < n; p++ {
			if (wide && p%4 != dest%4) || (!wide && p <= 2) {
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
		if pb.DV != nil {
			wholes++
		}
		sends++
		d.Recycle(&pb)
	}
	for _, wide := range []bool{true, false} {
		for i := 0; i < 4*n; i++ {
			step(wide) // sync every pair, grow the buffers to their steady size
		}
		wholes, sends = 0, 0
		if allocs := testing.AllocsPerRun(500, func() { step(wide) }); allocs != 0 {
			t.Errorf("steady-state compressed Send (wide=%v): %v allocs/op, want 0", wide, allocs)
		}
		want := 0
		if wide {
			want = sends
		}
		if wholes != want {
			t.Errorf("wide=%v: %d of %d messages shipped the whole vector, want %d", wide, wholes, sends, want)
		}
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
				d.Recycle(&pb)
			}
		}
	}
}
