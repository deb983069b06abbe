package runtime_test

import (
	"strings"
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

func lgcClusterTCP(t *testing.T, n int) *runtime.Cluster {
	t.Helper()
	c, err := runtime.NewCluster(runtime.Config{
		N:   n,
		TCP: true,
		LocalGC: func(self, nn int, st storage.Store) gc.Local {
			return core.New(self, nn, st)
		},
		Net:    runtime.NetworkOptions{MaxDelay: 200 * time.Microsecond, Seed: 3},
		Record: true, // its one caller checks the oracles
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTCPClusterEndToEnd drives concurrent workloads over a real loopback
// TCP mesh — dependency vectors cross actual sockets — validates the
// oracles on the linearized history, crashes a node, and continues.
func TestTCPClusterEndToEnd(t *testing.T) {
	const n = 3
	c := lgcClusterTCP(t, n)
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	driveRandom(t, c, 50, 17)

	oracle := c.Oracle()
	if v, bad := oracle.FirstRDTViolation(); bad {
		t.Fatalf("TCP execution produced non-RDT pattern: %v", v)
	}
	if len(oracle.Messages()) == 0 {
		t.Fatal("no messages crossed the mesh")
	}
	for i := 0; i < n; i++ {
		node := c.Node(i)
		vol := ccp.CheckpointID{Process: i, Index: oracle.VolatileIndex(i)}
		if !node.CurrentDV().Equal(oracle.DV(vol)) {
			t.Errorf("p%d live DV %v != replayed %v (wire corruption?)", i, node.CurrentDV(), oracle.DV(vol))
		}
		if len(node.Store().Indices()) > n {
			t.Errorf("p%d exceeds the n bound over TCP", i)
		}
		for g := 0; g <= oracle.LastStable(i); g++ {
			stored := false
			for _, idx := range node.Store().Indices() {
				if idx == g {
					stored = true
				}
			}
			if !stored && !oracle.Obsolete(i, g) {
				t.Errorf("p%d collected non-obsolete s^%d over TCP", i, g)
			}
		}
	}

	// Crash and keep going on the same sockets.
	if _, err := c.Recover([]int{1}, true); err != nil {
		t.Fatal(err)
	}
	driveRandom(t, c, 25, 29)
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("post-recovery TCP pattern not RDT: %v", v)
	}
}

// TestTCPClusterQuiesceDrains checks Quiesce waits for socket deliveries:
// after Quiesce, the delivered count equals the sent count (no loss
// configured).
func TestTCPClusterQuiesceDrains(t *testing.T) {
	c, err := runtime.NewCluster(runtime.Config{N: 2, TCP: true, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const msgs = 100
	for i := 0; i < msgs; i++ {
		if err := c.Node(0).Send(1); err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce()
	h := c.History()
	recvs := 0
	for _, op := range h.Ops {
		if op.Kind == ccp.OpRecv {
			recvs++
		}
	}
	if recvs != msgs {
		t.Fatalf("after Quiesce %d of %d messages delivered", recvs, msgs)
	}
}

// TestTCPLoudDeathCountsLost: frames the TCP wire's reader refuses kill the
// pair's connection loudly, both ways. transport.bad_frames reads 1, the
// frames the dead connection carried are counted in runtime.link.lost, and
// Quiesce returns; a later send on the dead pair, either way, is refused by
// the wire and counted lost too — never parked behind a retry.
func TestTCPLoudDeathCountsLost(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := runtime.NewCluster(runtime.Config{N: 2, TCP: true, Compress: true, Obs: obs.Options{Registry: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Node(0).Send(1); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	const poisoned = 10
	c.PoisonStream(0, 1, poisoned)
	quiesceWithin(t, c, 10*time.Second)
	check := func(when string, lost int64) {
		t.Helper()
		snap := reg.Snapshot()
		if got := snap.Counter(obs.TransportBadFrames); got != 1 {
			t.Fatalf("%s: transport.bad_frames = %d, want 1", when, got)
		}
		if got := snap.Counter(obs.RuntimeLinkLost); got != lost {
			t.Fatalf("%s: runtime.link.lost = %d, want %d", when, got, lost)
		}
		if got := snap.Gauge(obs.RuntimeLinkParked); got != 0 {
			t.Fatalf("%s: runtime.link.parked = %d, want 0", when, got)
		}
	}
	check("after the poisoned batch", poisoned)
	if err := c.Node(1).Send(0); err != nil {
		t.Fatal(err)
	}
	quiesceWithin(t, c, 10*time.Second)
	check("after a send the other way", poisoned+1)
}

// TestTCPRefusesPayloadPastFrameCap: a payload that cannot fit a TCP frame
// beside the largest piggyback the cluster can carry is refused by the send,
// naming the 1 MiB cap, before the kernel encodes anything — written, the
// frame would kill the pair's connection at its reader. The largest payload
// that fits is delivered, and the compressed pair goes on delivering in
// order after the refusal.
func TestTCPRefusesPayloadPastFrameCap(t *testing.T) {
	const n = 2
	var delivered atomic.Int64
	c, err := runtime.NewCluster(runtime.Config{
		N: n, TCP: true, Compress: true,
		OnDeliver: func(int, app.App, []byte) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	max := 1<<20 - 8*(11+2*n) // the cap less a sparse piggyback naming all n entries
	entries := c.PiggybackEntries()
	err = c.Node(0).SendPayload(1, make([]byte, max+1))
	if err == nil || !strings.Contains(err.Error(), "1 MiB") {
		t.Fatalf("a %d-byte payload: %v, want a refusal naming the 1 MiB cap", max+1, err)
	}
	if err := c.Node(0).SendPayload(1, make([]byte, 2<<20)); err == nil {
		t.Fatal("a 2 MiB payload was accepted")
	}
	if got := c.PiggybackEntries(); got != entries {
		t.Fatalf("the refused sends piggybacked %d entries", got-entries)
	}
	for _, size := range []int{max, 0, 16} {
		if err := c.Node(0).SendPayload(1, make([]byte, size)); err != nil {
			t.Fatalf("a %d-byte payload: %v", size, err)
		}
	}
	quiesceWithin(t, c, 10*time.Second)
	if got := delivered.Load(); got != 3 {
		t.Fatalf("%d of 3 messages delivered", got)
	}
}
