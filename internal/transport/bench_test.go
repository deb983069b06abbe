package transport

// The TCP mesh's framing round trip, pinned at its three allocations and
// benchmarked across the E5/E7 size sweep.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/vclock"
)

var (
	sink    int
	sinkBuf []byte
)

// roundTripStep frames a message with a 64-byte payload into a fresh
// buffer and decodes it into a message that owns its memory: a dense one
// carries the n-entry vector, a sparse one four changed entries whatever
// the system size, so its cost is O(changed).
func roundTripStep(tb testing.TB, n int, sparse bool) func() {
	m := Message{From: 0, To: 1, Msg: 7, Epoch: 3, Index: 2, Sparse: sparse, Payload: make([]byte, 64)}
	if sparse {
		for i := 0; i < 4; i++ {
			m.Entries = append(m.Entries, vclock.Entry{K: i, V: i + 1})
		}
	} else {
		m.DV = make([]int, n)
		for j := range m.DV {
			m.DV[j] = j
		}
	}
	return func() {
		out, err := Decode(Encode(m))
		if err != nil {
			tb.Fatal(err)
		}
		sink += out.To
	}
}

// TestRoundTripAllocationBudget: the frame is sized exactly up front — one
// slices.Grow and no regrowth, no allocation per field — and the copying
// decoder allocates the piggyback and the payload it returns and nothing
// else, at any size, in either form. What a Grow from nil costs is measured,
// not assumed: one allocation, but two in a race-detector build, where the
// compiler does not fuse its make into the append.
func TestRoundTripAllocationBudget(t *testing.T) {
	grow := testing.AllocsPerRun(100, func() { sinkBuf = slices.Grow([]byte(nil), 64) })
	for _, sparse := range []bool{false, true} {
		for _, n := range []int{4, 1024} {
			if allocs := testing.AllocsPerRun(200, roundTripStep(t, n, sparse)); allocs != grow+2 {
				t.Errorf("n=%d sparse=%v: encode+decode allocated %.0f times, want %.0f (frame, piggyback, payload)", n, sparse, allocs, grow+2)
			}
		}
	}
}

func benchRoundTrip(b *testing.B, sparse bool) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			step := roundTripStep(b, n, sparse)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

func BenchmarkRoundTrip(b *testing.B)       { benchRoundTrip(b, false) }
func BenchmarkRoundTripSparse(b *testing.B) { benchRoundTrip(b, true) }

// TestTCPReceiveSteadyStateAllocs: once warm, a stream's receive side
// allocates nothing — one SendBatch of five frames with payloads of 1, 7,
// 13, 16 and 1000 bytes, read, decoded and delivered, costs 0 allocations
// on either end. Odd payloads leave frames that are not word multiples, so
// this holds only because SendBatch pads every frame to whole words: an
// unaligned frame is copied out of the buffer (decodeView's fallback).
func TestTCPReceiveSteadyStateAllocs(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	got := make(chan int, 1)
	seen := 0
	if err := mesh.StartBatched(func(ms []Message) {
		for i := range ms {
			sink += len(ms[i].Payload) + len(ms[i].DV)
		}
		if seen += len(ms); seen%5 == 0 {
			got <- seen
		}
	}); err != nil {
		t.Fatal(err)
	}
	batch := make([]Message, 5)
	for i, pl := range []int{1, 7, 13, 16, 1000} {
		batch[i] = Message{From: 0, To: 1, Msg: i, DV: []int{i, 1}, Payload: make([]byte, pl)}
	}
	round := func() {
		if n, err := mesh.SendBatch(0, 1, batch); err != nil || n != len(batch) {
			t.Fatalf("SendBatch accepted %d of %d: %v", n, len(batch), err)
		}
		<-got
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a warm round trip of five frames allocated %.2f times, want 0", allocs)
	}
}
