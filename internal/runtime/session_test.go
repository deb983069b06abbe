package runtime_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
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
					Record:    true,
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

// TestSessionDropsParkedFrames pins what a recovery session leaves of the
// link layer's backlogs: nothing. Frames reach a backlog one way — a cut
// pair parks what it is sent (park). After Recover, and again after
// Restart, runtime.link.parked reads 0, and the cluster's down-link count —
// what the session reads instead of sweeping every pair — equals a recount
// under each pair's lock, both 0. Healing the cut afterwards delivers none
// of the pre-session frames, and both pairs carry new traffic.
func TestSessionDropsParkedFrames(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const n, parked = 3, 10
		const pre, post = 1, 2 // payload tags
		var preDelivered, postDelivered atomic.Int64
		reg := obs.NewRegistry()
		c, err := runtime.NewCluster(runtime.Config{
			N: n, TCP: tcp, Compress: true,
			LocalGC: func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
			OnDeliver: func(_ int, _ app.App, p []byte) {
				switch p[0] {
				case pre:
					preDelivered.Add(1)
				case post:
					postDelivered.Add(1)
				}
			},
			Obs:    obs.Options{Registry: reg},
			Record: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		parkedGauge := reg.Gauge(obs.RuntimeLinkParked)
		downLinks := func(when string, want int) {
			t.Helper()
			if recounted, counted := c.DownLinks(); recounted != counted || counted != want {
				t.Fatalf("%s: %d links down by recount, %d by the cluster's count; want %d", when, recounted, counted, want)
			}
		}

		for _, s := range []struct {
			name string
			run  func() error
		}{
			{"recover", func() error { _, err := c.Recover([]int{2}, true); return err }},
			{"restart", func() error {
				if err := c.Crash(2); err != nil {
					return err
				}
				_, err := c.Restart(true)
				return err
			}},
		} {
			if !c.BreakLink(0, 1) {
				t.Fatalf("%s: BreakLink(0,1) found the pair cut", s.name)
			}
			for k := 0; k < parked; k++ {
				if err := c.Node(0).SendPayload(1, []byte{pre}); err != nil {
					t.Fatal(err)
				}
			}
			c.Quiesce()
			if got := parkedGauge.Value(); got != parked {
				t.Fatalf("%s: %d frames parked before the session, want %d", s.name, got, parked)
			}
			downLinks(s.name+": before the session", 1)

			if err := s.run(); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			after := func(when string) {
				t.Helper()
				if got := parkedGauge.Value(); got != 0 {
					t.Fatalf("%s: runtime.link.parked = %d", when, got)
				}
				downLinks(when, 0)
			}
			after(s.name)
			if !c.HealLink(0, 1) {
				t.Fatalf("%s: the session lifted the cut", s.name)
			}
			c.Quiesce()
			after(s.name + " and the heal")
			if got := preDelivered.Load(); got != 0 {
				t.Fatalf("%s: %d pre-session frames delivered after the heal", s.name, got)
			}

			postDelivered.Store(0)
			for _, p := range [][2]int{{0, 1}, {1, 0}} {
				if err := c.Node(p[0]).SendPayload(p[1], []byte{post}); err != nil {
					t.Fatal(err)
				}
			}
			c.Quiesce()
			if got := postDelivered.Load(); got != 2 {
				t.Fatalf("%s: %d of 2 post-session messages delivered", s.name, got)
			}
			after(s.name + " and new traffic")
		}
		checkOracles(t, c)
	})
}
