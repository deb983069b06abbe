package runtime_test

import (
	"testing"
	"time"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
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
