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
