package rdt_test

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rdt "repro"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// TestScaleSparse1024 is the large-n smoke of the CI scale lane (it runs
// in -short mode, unlike the heavier soak below): a 1024-process system on
// sparse client-server traffic with compressed piggybacks, where the
// per-message cost must track the handful of entries that change, not the
// system size. It checks the run completes, the Section 4.5 retained bound
// holds, the piggyback accounting proves the traffic actually was sparse
// (entries per message ≪ n), and a recovery at this scale still yields a
// full-length line.
func TestScaleSparse1024(t *testing.T) {
	const n = 1024
	sys, err := rdt.New(n, rdt.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(rdt.Workload(rdt.ClientServer, rdt.WorkloadOptions{N: n, Ops: 6 * n, Seed: 1024})); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Delivered == 0 || st.Basic == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	for i, c := range sys.RetainedCounts() {
		if c > n {
			t.Fatalf("p%d retains %d > n = %d", i, c, n)
		}
	}
	// The sparse-cost claim, end to end: compressed piggybacks carry only
	// what changed. A hub topology genuinely aggregates — the server's
	// message to a client must eventually convey every other client's
	// progress since that client's last visit — so the honest bound is a
	// constant factor of n, not a constant: measured ≈0.3n here, where
	// full vectors would put n entries on every single message.
	perMsg := float64(st.PiggybackEntries) / float64(st.Sends)
	if perMsg > float64(n)/2 {
		t.Fatalf("compressed piggybacks carry %.1f entries/message at n=%d; want well under n/2", perMsg, n)
	}
	rep, err := sys.Recover([]int{1, 511, 1023}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Line) != n {
		t.Fatalf("line has %d entries, want %d", len(rep.Line), n)
	}
	if err := sys.Run(rdt.Workload(rdt.ClientServer, rdt.WorkloadOptions{N: n, Ops: n, Seed: 1025})); err != nil {
		t.Fatalf("post-recovery run: %v", err)
	}
}

// TestScaleSparseMatchesDense pins, at a scale past anything the unit
// suite drives, that compressed and full-vector runs of the same script
// remain bit-for-bit equivalent: same vectors, same checkpoint counts,
// same stores.
func TestScaleSparseMatchesDense(t *testing.T) {
	const n = 256
	script := rdt.Workload(rdt.ClientServer, rdt.WorkloadOptions{N: n, Ops: 8 * n, Seed: 256})
	run := func(opt ...rdt.Option) *rdt.System {
		sys, err := rdt.New(n, opt...)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(script); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	dense := run()
	sparse := run(rdt.WithCompression())
	ds, ss := dense.Stats(), sparse.Stats()
	if ds.Basic != ss.Basic || ds.Forced != ss.Forced || ds.Delivered != ss.Delivered {
		t.Fatalf("engines diverged: dense %+v vs sparse %+v", ds, ss)
	}
	if ss.PiggybackEntries >= ds.PiggybackEntries {
		t.Fatalf("compression did not shrink piggybacks: %d >= %d", ss.PiggybackEntries, ds.PiggybackEntries)
	}
	for i := 0; i < n; i++ {
		if !slices.Equal(dense.CurrentDV(i), sparse.CurrentDV(i)) {
			t.Fatalf("p%d vectors diverged", i)
		}
		if d, s := dense.Retained(i), sparse.Retained(i); !slices.Equal(d, s) {
			t.Fatalf("p%d retained sets diverged: %v vs %v", i, d, s)
		}
	}
}

// TestScaleLiveRing128 is the live runtime's share of the scale lane: a
// 128-process loopback-TCP ring under closed-loop load (16 credits per
// node, about 20k messages, a checkpoint every 32 sends) with one recovery
// session in the middle of the traffic. It asserts what must hold at any
// speed and nothing about speed: every message is delivered in per-pair
// order or was in transit when the session advanced the epoch (at most the
// credits outstanding), every message sent after the session arrives,
// Quiesce returns, and no process retains more than n checkpoints.
func TestScaleLiveRing128(t *testing.T) {
	const (
		n       = 128
		window  = 16
		perNode = 160
	)
	tokens := make([]chan struct{}, n)
	for i := range tokens {
		tokens[i] = make(chan struct{}, window)
		for k := 0; k < window; k++ {
			tokens[i] <- struct{}{}
		}
	}
	// Per receiver, written under its node lock and read after Quiesce:
	// deliveries by era (0 = sent before the session was known to be over)
	// and the last sequence number seen from its ring predecessor.
	type inbox struct {
		got     [2]int
		lastSeq uint64
		reorder int
	}
	in := make([]inbox, n)
	c, err := runtime.NewCluster(runtime.Config{
		N: n, TCP: true,
		LocalGC: func(self, nn int, st storage.Store) gc.Local { return core.New(self, nn, st) },
		OnDeliver: func(self int, _ app.App, payload []byte) {
			seq, era := binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:])
			b := &in[self]
			b.got[era]++
			if seq <= b.lastSeq {
				b.reorder++
			}
			b.lastSeq = seq
			// Never blocks under the receiver's lock: the top-up after the
			// session may already have replaced this credit.
			select {
			case tokens[(self+n-1)%n] <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var (
		wg    sync.WaitGroup
		era   atomic.Uint64
		total atomic.Int64
		sent  [2]atomic.Int64
		mid   = make(chan struct{})
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			node := c.Node(id)
			for seq := uint64(1); seq <= perNode; seq++ {
				<-tokens[id]
				for {
					e := era.Load()
					p := make([]byte, 16)
					binary.LittleEndian.PutUint64(p, seq)
					binary.LittleEndian.PutUint64(p[8:], e)
					err := node.SendPayload((id+1)%n, p)
					if errors.Is(err, runtime.ErrHalted) {
						time.Sleep(200 * time.Microsecond) // the session is running
						continue
					}
					if err != nil {
						t.Errorf("p%d send: %v", id, err)
						return
					}
					sent[e].Add(1)
					break
				}
				if total.Add(1) == n*perNode/2 {
					close(mid)
				}
				if seq%32 == 0 {
					if err := node.Checkpoint(); err != nil && !errors.Is(err, runtime.ErrHalted) {
						t.Errorf("p%d checkpoint: %v", id, err)
						return
					}
				}
			}
		}(i)
	}

	<-mid
	rep, err := c.Recover([]int{5, 77}, true)
	if err != nil {
		t.Fatalf("Recover under load: %v", err)
	}
	if len(rep.Line) != n || len(rep.RolledBack) < 2 {
		t.Fatalf("implausible session: line of %d, %d rolled back", len(rep.Line), len(rep.RolledBack))
	}
	// Everything sent before this point has been delivered or dropped, so
	// whatever is sent from here on must arrive; and the credits of the
	// dropped messages are gone, so top every sender up.
	era.Store(1)
	for _, ch := range tokens {
		for full := false; !full; {
			select {
			case ch <- struct{}{}:
			default:
				full = true
			}
		}
	}
	wg.Wait()
	quiesced := make(chan struct{})
	go func() { c.Quiesce(); close(quiesced) }()
	select {
	case <-quiesced:
	case <-time.After(time.Minute):
		t.Fatal("Quiesce did not return")
	}

	var got [2]int
	for i := range in {
		got[0] += in[i].got[0]
		got[1] += in[i].got[1]
		if in[i].reorder != 0 {
			t.Errorf("p%d saw %d deliveries out of pair order", i, in[i].reorder)
		}
	}
	if s := int(sent[1].Load()); got[1] != s {
		t.Errorf("%d of the %d messages sent after the session arrived", got[1], s)
	}
	if s := int(sent[0].Load()); got[0] > s || s-got[0] > n*window {
		t.Errorf("%d of the %d messages sent around the session arrived; at most %d can have been in transit", got[0], s, n*window)
	}
	if s := sent[0].Load() + sent[1].Load(); s != n*perNode {
		t.Errorf("%d messages sent, want %d", s, n*perNode)
	}
	for i := 0; i < n; i++ {
		if _, _, st := c.Node(i).Stats(); st.Live > n {
			t.Errorf("p%d retains %d > n = %d checkpoints", i, st.Live, n)
		}
		if err := c.Node(i).Collector().(*core.LGC).CheckRefCounts(); err != nil {
			t.Error(err)
		}
	}
	t.Logf("%d delivered, %d dropped by the epoch advance, %d processes rolled back",
		got[0]+got[1], int(sent[0].Load())-got[0], len(rep.RolledBack))
}

// TestScale64 runs a 64-process system end to end — a size well past the
// mobile/embedded deployments the paper targets — and checks the bound, a
// crash recovery and continued execution all hold up.
func TestScale64(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 64
	sys, err := rdt.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(rdt.Workload(rdt.Uniform, rdt.WorkloadOptions{N: n, Ops: 20000, Seed: 64})); err != nil {
		t.Fatal(err)
	}
	for i, c := range sys.RetainedCounts() {
		if c > n {
			t.Fatalf("p%d retains %d > n = %d", i, c, n)
		}
	}
	st := sys.Stats()
	if st.Delivered == 0 || st.Basic == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	rep, err := sys.Recover([]int{5, 23, 41}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Line) != n {
		t.Fatalf("line has %d entries", len(rep.Line))
	}
	if err := sys.Run(rdt.Workload(rdt.Bursty, rdt.WorkloadOptions{N: n, Ops: 5000, Seed: 65})); err != nil {
		t.Fatal(err)
	}
	for i, c := range sys.RetainedCounts() {
		if c > n {
			t.Fatalf("after recovery: p%d retains %d > n", i, c)
		}
	}
	// The worst case still binds exactly at this scale.
	ws, err := rdt.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Run(rdt.WorstCase(n)); err != nil {
		t.Fatal(err)
	}
	for i, c := range ws.RetainedCounts() {
		if c != n {
			t.Fatalf("worst case at n=64: p%d retains %d, want exactly %d", i, c, n)
		}
	}
}
