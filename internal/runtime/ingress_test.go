package runtime_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// busyWait burns roughly d of CPU without sleeping. The slow-receiver
// tests need a µs-scale per-delivery slowdown; time.Sleep at that scale
// costs ~1ms of kernel timer granularity per call, which would stretch a
// bounded drain past the quiesce watchdog on one CPU.
func busyWait(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestIngressBackpressureBounded saturates one slow receiver from many
// concurrent senders and checks the ingress ring's two promises: queued
// batches stay bounded (producers block instead of queueing unboundedly)
// and nothing deadlocks — the cluster still quiesces to a consistent
// history once the senders stop. On the TCP wire the producers are eight
// stream readers; on the in-process wire the destination's one pool worker,
// which blocks in the ring the same way.
func TestIngressBackpressureBounded(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const n = 9 // eight senders, one slow receiver
		reg := obs.NewRegistry()
		c, err := runtime.NewCluster(runtime.Config{
			N: n, TCP: tcp,
			Obs: obs.Options{Registry: reg},
			OnDeliver: func(self int, _ app.App, _ []byte) {
				if self == n-1 {
					busyWait(10 * time.Microsecond) // the slow consumer
				}
			},
			LocalGC: func(self, nn int, st storage.Store) gc.Local {
				return core.New(self, nn, st)
			},
			Record: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()

		// Bounded offered load: enough to drown the receiver for the whole
		// sampling window, small enough that the post-stop drain stays well
		// inside the quiesce watchdog even on one CPU.
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < n-1; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < 3000; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := c.Node(id).SendPayload(n-1, []byte{1}); err != nil {
						t.Errorf("p%d send: %v", id, err)
						return
					}
				}
			}(i)
		}

		// Sample the ingress depth while the receiver is drowning. The ring
		// holds 32 batches per node; the gauge counts batches enqueued and not
		// yet drain-accounted, so one node can momentarily show up to two
		// ring-fuls (a full grab group being applied plus a refilled ring).
		// Anything past that means producers are not really blocking.
		const depthCeiling = 2 * 32
		var maxDepth int64
		for i := 0; i < 50; i++ {
			if d := reg.Snapshot().Gauge(obs.RuntimeIngressDepth); d > maxDepth {
				maxDepth = d
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
		wg.Wait()
		quiesceWithin(t, c, 20*time.Second)

		if maxDepth > depthCeiling {
			t.Errorf("ingress depth reached %d batches; backpressure should cap it near %d", maxDepth, depthCeiling)
		}
		if maxDepth == 0 {
			t.Error("ingress depth never rose above zero; the saturation harness measured nothing")
		}
		if d := reg.Snapshot().Gauge(obs.RuntimeIngressDepth); d != 0 {
			t.Errorf("ingress depth %d after quiesce, want 0", d)
		}
		h := c.History()
		sends, recvs := 0, 0
		for _, op := range h.Ops {
			switch op.Kind {
			case ccp.OpSend:
				sends++
			case ccp.OpRecv:
				recvs++
			}
		}
		if recvs == 0 || recvs > sends {
			t.Fatalf("history inconsistent: %d receives of %d sends", recvs, sends)
		}
	})
}

// TestQuiesceAfterBreakLinkMidDrain cuts a link into a receiver that is
// mid-drain under saturation: the cut waits out the pair's writer and (on
// the TCP wire) its stream's reader while the receiver's ingress ring is
// busy, frames stranded on the dead stream are reconciled
// (transport.OnLinkDown), everything sent into the cut parks — and Quiesce
// returns, with nothing left hanging on in-flight accounting.
func TestQuiesceAfterBreakLinkMidDrain(t *testing.T) {
	bothWires(t, func(t *testing.T, tcp bool) {
		const n = 4
		var fromZero atomic.Int64 // deliveries at n-1 that travelled the 0->3 link
		c, err := runtime.NewCluster(runtime.Config{
			N: n, TCP: tcp,
			OnDeliver: func(self int, _ app.App, payload []byte) {
				if self == n-1 {
					busyWait(20 * time.Microsecond) // keep the receiver mid-drain
					if payload[0] == 0 {
						fromZero.Add(1)
					}
				}
			},
			LocalGC: func(self, nn int, st storage.Store) gc.Local {
				return core.New(self, nn, st)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < n-1; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for k := 0; k < 5000; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := c.Node(id).SendPayload(n-1, []byte{byte(id)}); err != nil {
						t.Errorf("p%d send: %v", id, err)
						return
					}
				}
			}(i)
		}
		// BreakLink cuts the pair whether or not it has carried anything yet —
		// called too early the cut would land on an idle link. A delivery from
		// p0 is the read-only proof that the link is up; then break it, once.
		for deadline := time.Now().Add(20 * time.Second); fromZero.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("no message from p0 reached p3 in 20s")
			}
			time.Sleep(time.Millisecond)
		}
		if !c.BreakLink(0, n-1) {
			t.Error("the 0->3 link was not open")
		}
		time.Sleep(5 * time.Millisecond)
		close(stop)
		wg.Wait()
		quiesceWithin(t, c, 20*time.Second)
	})
}

// TestObsIngressMetrics is the receive path's observability acceptance
// check: a live TCP run with a registry attached must account its drains —
// a positive drain count, a latency sample per drain, and a depth gauge
// that returns to zero once the cluster is idle.
func TestObsIngressMetrics(t *testing.T) {
	const n = 4
	reg := obs.NewRegistry()
	c, err := runtime.NewCluster(runtime.Config{
		N: n, TCP: true, Compress: true,
		Obs: obs.Options{Registry: reg},
		LocalGC: func(self, nn int, st storage.Store) gc.Local {
			return core.New(self, nn, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for round := 0; round < 50; round++ {
		for i := 0; i < n; i++ {
			if err := c.Node(i).Send((i + 1) % n); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Quiesce()

	snap := reg.Snapshot()
	drains := snap.Counter(obs.RuntimeIngressDrains)
	if drains <= 0 {
		t.Fatalf("%s = %d after %d deliveries", obs.RuntimeIngressDrains, drains, 50*n)
	}
	if h, ok := snap.Histogram(obs.RuntimeIngressNs); !ok || h.Count != uint64(drains) {
		t.Errorf("%s count = %+v, want one sample per drain (%d)", obs.RuntimeIngressNs, h, drains)
	}
	if d := snap.Gauge(obs.RuntimeIngressDepth); d != 0 {
		t.Errorf("%s = %d on an idle cluster, want 0", obs.RuntimeIngressDepth, d)
	}
	// Kernel-side accounting of the same drains: one delivery per message.
	if got := snap.Counter(obs.KernelDeliveries); got != 50*n {
		t.Errorf("%s = %d, want %d", obs.KernelDeliveries, got, 50*n)
	}
}
