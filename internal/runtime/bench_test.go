package runtime_test

// The live runtime's end-to-end delivery on an in-process cluster. There is
// no allocation pin here: the path is concurrent (sender-pool workers) and
// its per-message count moves with the schedule. allocs_per_msg on the
// benchmark's ring-saturated and uniform-w1 workloads judges it.

import (
	"fmt"
	"testing"

	"repro/internal/runtime"
)

// benchDelivery drives a ring: a send from each node in turn through the
// asynchronous network — forced-checkpoint decision, merge, RDT-LGC collect
// at the receiver — with a checkpoint every eighth send so the vectors keep
// moving and deliveries keep carrying new information.
func benchDelivery(b *testing.B, compress bool) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Both helpers attach the real collector, so a delivery includes
			// RDT-LGC's collect work.
			var c *runtime.Cluster
			if net := (runtime.NetworkOptions{Seed: 1}); compress {
				c = compressCluster(b, n, net, false)
			} else {
				c = lgcCluster(b, n, net)
			}
			send := func(i int) {
				from := i % n
				if err := c.Node(from).Send((from + 1) % n); err != nil {
					b.Fatal(err)
				}
			}
			// One message across every pair first: the pool's workers spawn,
			// the snapshot freelist fills and each compressed pair gets its
			// full sync out of the way.
			for i := 0; i < n; i++ {
				send(i)
			}
			c.Quiesce()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send(i)
				if i%8 == 7 {
					if err := c.Node(i % n).Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
			}
			c.Quiesce()
			b.StopTimer()
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkDelivery(b *testing.B)           { benchDelivery(b, false) }
func BenchmarkDeliveryCompressed(b *testing.B) { benchDelivery(b, true) }
