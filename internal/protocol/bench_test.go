package protocol_test

// FDAS's forced-checkpoint decision on delivery — Algorithm 4's
// new-information test — pinned allocation-free and benchmarked across the
// E5/E7 size sweep.

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/vclock"
)

var sink int

// fdasStep is the decision's worst case, called through the interface as
// the kernel calls it: the interval has a send, and the piggyback carries
// no new information, so the scan covers the whole vector.
func fdasStep(n int) func() {
	var p protocol.Protocol = protocol.NewFDAS()
	local := vclock.New(n)
	for j := range local {
		local[j] = j + 1
	}
	pb := protocol.Piggyback{DV: local.Clone()}
	return func() {
		p.OnSend()
		if p.ForcedBeforeDelivery(local, pb) {
			sink++
		}
		p.OnCheckpoint()
	}
}

func TestFDASDecisionAllocatesNothing(t *testing.T) {
	for _, n := range []int{4, 1024} {
		if allocs := testing.AllocsPerRun(200, fdasStep(n)); allocs != 0 {
			t.Errorf("n=%d: the FDAS decision allocated %.0f times per delivery, want 0", n, allocs)
		}
	}
}

func BenchmarkFDASDecision(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			step := fdasStep(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
