package node_test

// The shared middleware kernel's per-message paths — what both engines
// execute for every delivery and every compressed send — pinned and
// benchmarked across the E7 size sweep. The dense-uniform compressed send
// and the whole checkpoint have their own pins
// (TestCompressedSendAllocatesNothing, TestCheckpointAllocationBudget).

import (
	"fmt"
	"testing"

	"repro/internal/node"
	"repro/internal/vclock"
)

var benchSizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}

// deliverPeriod is one period of the full-vector delivery path: eight
// deliveries, each carrying new information about the next peer in
// rotation — decision, merge, RDT-LGC collect — with a send before the
// last, so that delivery takes FDAS's forced-checkpoint branch and the
// collector's per-checkpoint work runs too.
const deliverPeriod = 8

func deliverStep(tb testing.TB, n int) (*node.Kernel, func()) {
	k := kernel(tb, 0, n, false)
	pb := node.Piggyback{DV: vclock.New(n)}
	i := 0
	return k, func() {
		for d := 0; d < deliverPeriod; d++ {
			j := 1 + i%(n-1)
			i++
			pb.DV[j]++
			if d == deliverPeriod-1 {
				if _, err := k.Send(j); err != nil {
					tb.Fatal(err)
				}
			}
			if _, err := k.Deliver(pb); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestDeliverAllocatesOnlyTheSendSnapshot: the period's one allocation is
// the vector the arming send piggybacks; the eight deliveries, the forced
// checkpoint's save and the collection of the checkpoint it obsoletes
// allocate nothing once every peer has been heard from.
func TestDeliverAllocatesOnlyTheSendSnapshot(t *testing.T) {
	for _, n := range []int{4, 1024} {
		_, step := deliverStep(t, n)
		for i := 0; i < n; i++ {
			step() // the rotation passes every peer several times
		}
		if allocs := testing.AllocsPerRun(200, step); allocs != 1 {
			t.Errorf("n=%d: %d deliveries, a send and a forced checkpoint allocated %.0f times, want 1", n, deliverPeriod, allocs)
		}
	}
}

// sendCompressedStep is the compressed round trip on a repeat pair: a
// checkpoint changes exactly one entry of a's vector, the incremental
// encode ships that entry instead of n, and b verifies FIFO order, decides
// and merges on the entry alone.
func sendCompressedStep(tb testing.TB, n int) (*node.Kernel, func()) {
	a, b := kernel(tb, 0, n, true), kernel(tb, 1, n, true)
	return a, func() {
		if _, err := a.Checkpoint(true); err != nil {
			tb.Fatal(err)
		}
		pb, err := a.Send(1)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := b.Deliver(pb); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCompressedRoundTripAllocatesOnlyTheEntries: without a driver to
// recycle it, the one-entry buffer the message leaves in is the round
// trip's only allocation — at n = 1024 as at n = 4.
func TestCompressedRoundTripAllocatesOnlyTheEntries(t *testing.T) {
	for _, n := range []int{4, 1024} {
		_, step := sendCompressedStep(t, n)
		for i := 0; i < 64; i++ {
			step() // past the pair's full sync; log and store at steady size
		}
		if allocs := testing.AllocsPerRun(200, step); allocs != 1 {
			t.Errorf("n=%d: checkpoint + compressed send + deliver allocated %.0f times, want 1", n, allocs)
		}
	}
}

// BenchmarkDeliver: one op is a period of eight deliveries (the retired
// harness reported per delivery).
func BenchmarkDeliver(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k, step := deliverStep(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(len(k.Store().Indices())), "retained")
		})
	}
}

func BenchmarkSendCompressed(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a, step := sendCompressedStep(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(a.PiggybackEntries())/float64(b.N), "entries/msg")
		})
	}
}
