package runtime_test

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// TestRefusedSessionLeavesCompressedClusterUsable pins what a recovery
// session that returns an error owes a compressed cluster. A request that is
// malformed on its face is refused before anything is disturbed, so the
// messages in flight still arrive; a session refused or failed after the
// epoch moved has dropped them, and must therefore reset every pair's
// compressor on its way out — otherwise the next delivery finds a gap in the
// pair's delta chain and the kernel's FIFO check panics. Either way the
// cluster must go on to send, deliver, checkpoint and run a successful
// recovery with every oracle green.
func TestRefusedSessionLeavesCompressedClusterUsable(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		// refuse provokes the failing session with sends in flight; it
		// reports how many of those sends must still be delivered.
		refuse func(t *testing.T, c *runtime.Cluster, flaky *flakyStore, inFlight func() int) int
	}{
		{"faulty out of range", func(t *testing.T, c *runtime.Cluster, _ *flakyStore, inFlight func() int) int {
			sent := inFlight()
			if _, err := c.Recover([]int{99}, true); err == nil {
				t.Fatal("Recover accepted faulty process 99")
			}
			return sent
		}},
		{"recover while a process is down", func(t *testing.T, c *runtime.Cluster, _ *flakyStore, inFlight func() int) int {
			if err := c.Crash(1); err != nil {
				t.Fatal(err)
			}
			inFlight()
			if _, err := c.Recover([]int{0}, true); err == nil {
				t.Fatal("Recover ran with p1 down")
			}
			// The survivors talk on before anyone restarts p1.
			inFlight()
			c.Quiesce()
			if _, err := c.Restart(true); err != nil {
				t.Fatalf("Restart after the refused Recover: %v", err)
			}
			return 0
		}},
		{"rehydrate fails", func(t *testing.T, c *runtime.Cluster, flaky *flakyStore, inFlight func() int) int {
			if err := c.Crash(2); err != nil {
				t.Fatal(err)
			}
			inFlight()
			flaky.failLoad = true
			if _, err := c.Restart(true); err == nil {
				t.Fatal("Restart succeeded over a store that cannot load")
			}
			inFlight()
			c.Quiesce()
			flaky.failLoad = false
			if _, err := c.Restart(true); err != nil {
				t.Fatalf("Restart after the store recovered: %v", err)
			}
			return 0
		}},
	}
	for _, tcp := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name + "/in-process"
			if tcp {
				name = tc.name + "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				flaky := &flakyStore{}
				delivered := make([]int, n)
				c, err := runtime.NewCluster(runtime.Config{
					N: n, TCP: tcp, Compress: true,
					Net: runtime.NetworkOptions{MinDelay: 5 * time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 4},
					LocalGC: func(self, n int, st storage.Store) gc.Local {
						return core.New(self, n, st)
					},
					NewStore: func(self int) (storage.Store, error) {
						st := storage.Store(storage.NewMemStore())
						if self == 2 {
							flaky.Store = st
							st = flaky
						}
						return st, nil
					},
					// Runs under the receiver's lock; read after Quiesce.
					OnDeliver: func(self int, _ app.App, _ []byte) { delivered[self]++ },
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = c.Close() }()
				driveRandom(t, c, 20, 41)
				before := delivered[0] + delivered[1] + delivered[2]

				// Thirty sends that are still in the 5 ms network when the
				// session is asked for, from every process that is up.
				inFlight := func() int {
					sent := 0
					for k := 0; k < 10; k++ {
						for p := 0; p < n; p++ {
							if c.Node(p).Down() {
								continue
							}
							if err := c.Node(p).Send((p + 1) % n); err != nil {
								t.Fatalf("p%d send: %v", p, err)
							}
							sent++
						}
					}
					return sent
				}
				mustArrive := tc.refuse(t, c, flaky, inFlight)
				c.Quiesce()
				if got := delivered[0] + delivered[1] + delivered[2] - before; got < mustArrive {
					t.Errorf("%d of the %d sends in flight arrived after a request refused on its face", got, mustArrive)
				}

				// The cluster carries on: traffic and checkpoints, a session
				// that succeeds, more traffic — any stale delta chain panics in
				// the delivery that meets it.
				driveRandom(t, c, 20, 43)
				rep, err := c.Recover([]int{1}, true)
				if err != nil {
					t.Fatalf("Recover after the refused session: %v", err)
				}
				if len(rep.RolledBack) == 0 {
					t.Error("the faulty process did not roll back")
				}
				driveRandom(t, c, 20, 47)
				checkOracles(t, c)
			})
		}
	}
}
