package runtime

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/storage"
)

// TestSessionCutWorkIndependentOfHistory pins the cost of cutting history
// in a real recovery session: p0 is rolled back, p1 and p2 are not, and
// however much history the survivors hold the session looks at the same few
// events — and at none of theirs.
func TestSessionCutWorkIndependentOfHistory(t *testing.T) {
	session := func(events int) int {
		c, err := NewCluster(Config{N: 3, LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		}})
		if err != nil {
			t.Fatal(err)
		}
		for c.Node(1).log.Len()+c.Node(2).log.Len() < events {
			for i := 0; i < 256; i++ {
				if err := c.Node(1).Send(2); err != nil {
					t.Fatal(err)
				}
			}
			c.Quiesce()
		}
		if err := c.Node(0).Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := c.Node(1).Send(0); err != nil { // p0 loses this receive
			t.Fatal(err)
		}
		c.Quiesce()
		n1, n2 := c.Node(1).log.Len(), c.Node(2).log.Len()
		rep, err := c.Recover([]int{0}, true)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.RolledBack, []int{0}) {
			t.Fatalf("rolled back %v, want only p0", rep.RolledBack)
		}
		if c.Node(1).log.Len() != n1 || c.Node(2).log.Len() != n2 || c.Node(0).log.Len() != 1 {
			t.Fatalf("logs after the session: %d, %d, %d events", c.Node(0).log.Len(), c.Node(1).log.Len(), c.Node(2).log.Len())
		}
		h := c.History()
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		return c.cutVisited
	}
	large := 1_000_000
	if testing.Short() {
		large = 100_000
	}
	small, big := session(10_000), session(large)
	if small != big || small > 4 {
		t.Fatalf("session visited %d events with 10^4 recorded, %d with %d", small, big, large)
	}
}

// TestHistoryWhileSendingTCP takes History and Oracle snapshots while eight
// nodes send over the mesh (run under -race): every snapshot is a valid
// script — no receive without its send — and rebuilds without panicking.
func TestHistoryWhileSendingTCP(t *testing.T) {
	const n, credits = 8, 4
	// A closed loop, so the history grows at the rate the cluster delivers
	// and a snapshot's cost cannot run away from the traffic it races.
	tokens := make([]chan struct{}, n)
	for i := range tokens {
		tokens[i] = make(chan struct{}, credits)
		for k := 0; k < credits; k++ {
			tokens[i] <- struct{}{}
		}
	}
	c, err := NewCluster(Config{N: n, TCP: true,
		OnDeliver: func(_ int, _ app.App, payload []byte) { tokens[payload[0]] <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				case <-tokens[id]:
				}
				if err := c.Node(id).SendPayload((id+1+k%(n-1))%n, []byte{byte(id)}); err != nil {
					t.Errorf("p%d send: %v", id, err)
					return
				}
				if k%64 == 63 {
					if err := c.Node(id).Checkpoint(); err != nil {
						t.Errorf("p%d checkpoint: %v", id, err)
						return
					}
				}
			}
		}(i)
	}
	// At least 20 snapshots, and on until they have seen real traffic (the
	// first few can beat the senders to the cluster).
	last := 0
	for snap := 0; snap < 20 || last < 4000; snap++ {
		h := c.History()
		if err := h.Validate(); err != nil {
			t.Fatalf("snapshot %d: %v", snap, err)
		}
		if len(h.Ops) < last {
			t.Fatalf("snapshot %d shrank: %d ops after %d", snap, len(h.Ops), last)
		}
		last = len(h.Ops)
		if snap%5 == 0 {
			_ = c.Oracle() // BuildCCP panics on an invalid script
		}
	}
	close(stop)
	wg.Wait()
	c.Quiesce()
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
	if sends == 0 || sends != recvs {
		t.Fatalf("after the drain: %d sends, %d receives", sends, recvs)
	}
}
