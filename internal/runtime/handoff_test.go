package runtime_test

import (
	"testing"

	"repro/internal/runtime"
)

// TestHandoffRecyclesAtDelivery pins when the in-process wire gives a
// piggyback buffer back to its sender: at delivery. Each node's freelists
// are stocked with more buffers than its traffic can hold at once, so every
// buffer a node hands out comes from its stock; after rounds of all-pairs
// sends and a Quiesce, each node's freelists must hold the whole stock
// again. A pair that kept its last frame for a retransmit — which the
// in-process wire, delivering as it accepts, never makes — would keep that
// frame's buffer too.
func TestHandoffRecyclesAtDelivery(t *testing.T) {
	const n, rounds, stock = 4, 3, 4 * 4
	for _, compress := range []bool{true, false} {
		name := map[bool]string{false: "full", true: "compressed"}[compress]
		t.Run(name, func(t *testing.T) {
			c, err := runtime.NewCluster(runtime.Config{N: n, Compress: compress})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			for i := 0; i < n; i++ {
				c.Node(i).StockBuffers(stock)
			}
			for r := 0; r < rounds; r++ {
				for from := 0; from < n; from++ {
					for to := 0; to < n; to++ {
						if to == from {
							continue
						}
						if err := c.Node(from).Send(to); err != nil {
							t.Fatal(err)
						}
					}
				}
				c.Quiesce()
			}
			for i := 0; i < n; i++ {
				if got := c.Node(i).FreeBuffers(); got != 2*stock {
					t.Errorf("p%d: %d piggyback buffers on its freelists after Quiesce, want its stock of %d", i, got, 2*stock)
				}
			}
		})
	}
}
