package runtime_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/runtime"
)

// TestQuietNetworkKeepsTheSeededStream pins the seeded loss and delay stream
// across quiet stretches. A send on a network with no loss and no delay
// spread draws nothing; SetNetwork replays the draws such sends skipped, one
// Float64 each — what every send drew before quiet sends stopped drawing — so
// the decisions after a burst opens are the ones a reference stream that drew
// for every quiet send makes.
func TestQuietNetworkKeepsTheSeededStream(t *testing.T) {
	const (
		seed  = 42
		n     = 3
		delay = 3 * time.Millisecond
		loss  = 0.3
	)
	c, err := runtime.NewCluster(runtime.Config{N: n, Net: runtime.NetworkOptions{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ref := rand.New(rand.NewSource(seed))

	// quiet runs k serial sends, spread over every node, and k draws read
	// through the hook, all decided without the stream; the reference draws
	// one Float64 for each.
	quiet := func(k int) {
		t.Helper()
		if err := c.SetNetwork(0, 0, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			from := i % n
			if err := c.Node(from).Send((from + 1) % n); err != nil {
				t.Fatal(err)
			}
			c.Quiesce()
			if d, drop := c.Node(from).NetworkDraw(); d != 0 || drop {
				t.Fatalf("quiet draw %d: delay %v, drop %v", i, d, drop)
			}
			ref.Float64()
			ref.Float64()
		}
	}
	// burst opens a lossy, delayed network and holds m draws to the
	// reference's.
	burst := func(m int) {
		t.Helper()
		if err := c.SetNetwork(0, delay, loss); err != nil {
			t.Fatal(err)
		}
		drops := 0
		for i := 0; i < m; i++ {
			d, drop := c.Node(i % n).NetworkDraw()
			wantDrop := ref.Float64() < loss
			wantD := time.Duration(ref.Int63n(int64(delay)))
			if d != wantD || drop != wantDrop {
				t.Fatalf("burst draw %d: delay %v drop %v, the seeded stream says %v %v", i, d, drop, wantD, wantDrop)
			}
			if drop {
				drops++
			}
		}
		if drops == 0 || drops == m {
			t.Fatalf("%d of %d draws dropped: the burst decided nothing", drops, m)
		}
	}
	quiet(37)
	burst(200)
	quiet(11)
	burst(200)
}
