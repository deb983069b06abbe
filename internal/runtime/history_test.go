package runtime

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/ccp"
	"repro/internal/obs"
)

// histPair drives the reference and the implementation side by side: ref is
// the eagerly linearized script, truncated by ccp.Truncate; rec is a claimed
// recorder holding the same run as flight events, with each cut recorded as
// rollbacks, joined on demand.
type histPair struct {
	t    *testing.T
	rng  *rand.Rand
	ref  ccp.Script
	rec  *obs.Recorder
	tick int
	// ckpts counts each process's checkpoints as the join sees them.
	ckpts []int
	// transit lists sent, undelivered messages: number in ref, id in rec.
	transit []struct{ m, from, id int }
}

func newHistPair(t *testing.T, rng *rand.Rand, n int) *histPair {
	rec := obs.NewRecorder(0)
	if err := rec.Attach(true); err != nil {
		t.Fatal(err)
	}
	return &histPair{t: t, rng: rng, ref: ccp.Script{N: n}, rec: rec, ckpts: make([]int, n)}
}

// run appends ops random events: checkpoints, sends, and deliveries of a
// random message in transit (so receives arrive reordered, across cuts).
func (h *histPair) run(ops int) {
	n := h.ref.N
	for i := 0; i < ops; i++ {
		p := h.rng.Intn(n)
		h.tick++
		switch r := h.rng.Float64(); {
		case r < 0.2:
			h.ref.Checkpoint(p)
			h.ckpts[p]++
			h.rec.Record(obs.Event{Kind: obs.EvCheckpoint, P: p, Msg: h.ckpts[p]})
		case r < 0.6 || len(h.transit) == 0:
			m := h.ref.Send(p)
			h.rec.Record(obs.Event{Kind: obs.EvSend, P: p, Msg: h.tick})
			h.transit = append(h.transit, struct{ m, from, id int }{m, p, h.tick})
		default:
			k := h.rng.Intn(len(h.transit))
			tr := h.transit[k]
			h.transit = slices.Delete(h.transit, k, k+1)
			to := h.rng.Intn(n - 1)
			if to >= tr.from {
				to++
			}
			h.ref.Recv(to, tr.m)
			h.rec.Record(obs.Event{Kind: obs.EvDeliver, P: to, Msg: tr.id, Aux: tr.from})
		}
	}
}

// cut truncates both sides at a random cut: each process keeps its history
// whole or is rolled back after a random one of its checkpoints (0 =
// everything).
func (h *histPair) cut() {
	cuts := make([]int, h.ref.N)
	for p := range cuts {
		cuts[p] = -1
		if h.rng.Intn(2) == 0 {
			cuts[p] = h.rng.Intn(h.ckpts[p] + 1)
		}
	}
	var remap map[int]int
	h.ref, remap = ccp.Truncate(h.ref, cuts)
	for p, k := range cuts {
		if k >= 0 {
			h.rec.Record(obs.Event{Kind: obs.EvRollback, P: p, Msg: k})
			h.ckpts[p] = k
		}
	}
	// Messages in transit whose send was cut are gone; the rest renumber.
	kept := h.transit[:0]
	for _, tr := range h.transit {
		if m, ok := remap[tr.m]; ok {
			tr.m = m
			kept = append(kept, tr)
		}
	}
	h.transit = kept
}

func (h *histPair) compare(when string) {
	h.t.Helper()
	got := joinHistory(h.ref.N, h.rec.Events())
	if !slices.Equal(got.Ops, h.ref.Ops) {
		h.t.Fatalf("%s: joined history differs from the reference (%d vs %d ops)\ngot  %v\nwant %v",
			when, len(got.Ops), len(h.ref.Ops), got.Ops, h.ref.Ops)
	}
}

// TestHistoryJoinMatchesTruncate is the differential property test of the
// recorded history: flight events with rollbacks, joined at read time, must
// equal ccp.Truncate applied to the eager script, op for op — after one
// rollback, after events recorded on top of it, and after a second one.
// Every 12th case records enough events to span several of the recorder's
// 64-event chunks per process.
func TestHistoryJoinMatchesTruncate(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		ops := 20 + rng.Intn(400)
		if seed%12 == 0 {
			ops = 3*64*n + rng.Intn(2*64*n)
		}
		h := newHistPair(t, rng, n)
		h.run(ops)
		h.compare("before any rollback")
		h.cut()
		h.compare("after the first rollback")
		h.run(ops / 2)
		h.compare("after events on top of the first rollback")
		h.cut()
		h.compare("after the second rollback")
		h.run(ops / 2)
		h.compare("after events on top of the second rollback")
		if err := h.ref.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHistoryDuplicateReceiveKept: a message delivered twice reaches the
// oracles twice, so a duplicate-delivery bug fails them; only a receive
// whose send was rolled back is dropped.
func TestHistoryDuplicateReceiveKept(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.EvSend, P: 0, Msg: 1, Aux: 1},
		{Kind: obs.EvDeliver, P: 1, Msg: 1, Aux: 0},
		{Kind: obs.EvDeliver, P: 1, Msg: 1, Aux: 0},
	}
	h := joinHistory(2, evs)
	if len(h.Ops) != 3 || h.Validate() == nil {
		t.Fatalf("a duplicate receive was joined into %v, want it kept and the script invalid", h.Ops)
	}
}

// TestNewClusterRefusesSharedHistory: a recorded cluster's recorder is its
// history, so NewCluster refuses to mix runs in it — a recorded cluster on a
// recorder another cluster records into, and any cluster on a recorder a
// recorded cluster has claimed.
func TestNewClusterRefusesSharedHistory(t *testing.T) {
	build := func(rec *obs.Recorder, record bool) error {
		c, err := NewCluster(Config{N: 2, Record: record, Obs: obs.Options{Recorder: rec}})
		if err == nil {
			_ = c.Close()
		}
		return err
	}
	watched := obs.NewRecorder(0)
	if err := build(watched, false); err != nil {
		t.Fatal(err)
	}
	if err := build(watched, true); err == nil {
		t.Fatal("a recorded cluster took a recorder another cluster records into")
	}
	claimed := obs.NewRecorder(0)
	if err := build(claimed, true); err != nil {
		t.Fatal(err)
	}
	for _, record := range []bool{false, true} {
		if err := build(claimed, record); err == nil {
			t.Fatalf("a cluster (Record %v) took a recorder a recorded cluster has claimed", record)
		}
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
	c, err := NewCluster(Config{N: n, TCP: true, Record: true,
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
