package transport

import (
	"errors"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// start registers a per-message callback through StartBatched, and send
// transmits one message through SendBatch: the mesh's only API, taken one
// message at a time.
func start(mesh *TCP, deliver func(Message)) error {
	return mesh.StartBatched(func(ms []Message) {
		for _, m := range ms {
			deliver(m)
		}
	})
}

func send(mesh *TCP, m Message) error {
	_, err := mesh.SendBatch(m.From, m.To, []Message{m})
	return err
}

// cloneMessage deep-copies the variable-length sections of a Message. The
// StartBatched ownership contract says DV, Entries, and Payload are views
// into transport-owned buffers valid only for the callback's duration;
// tests that retain messages past the callback must copy, like any consumer.
func cloneMessage(m Message) Message {
	if m.DV != nil {
		m.DV = append(make([]int, 0, len(m.DV)), m.DV...)
	}
	if m.Entries != nil {
		m.Entries = append(make(vclock.Delta, 0, len(m.Entries)), m.Entries...)
	}
	if m.Payload != nil {
		m.Payload = append(make([]byte, 0, len(m.Payload)), m.Payload...)
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Message{
			From:    rng.Intn(64),
			To:      rng.Intn(64),
			Msg:     rng.Intn(1 << 20),
			Epoch:   uint64(rng.Intn(100)),
			Index:   rng.Intn(1000),
			DV:      make([]int, rng.Intn(16)),
			Payload: make([]byte, rng.Intn(64)),
		}
		for i := range m.DV {
			m.DV[i] = rng.Intn(1000)
		}
		rng.Read(m.Payload)
		got, err := decode(appendEncode(nil, &m))
		if err != nil {
			return false
		}
		if len(m.DV) == 0 {
			m.DV = []int{}
			got.DV = []int{}
		}
		if len(m.Payload) == 0 {
			m.Payload = []byte{}
			got.Payload = []byte{}
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeViewMatchesDecode pins the zero-copy decoder to the portable
// one: for any encodable message — full, sparse, with and without payload,
// at aligned and unaligned buffer offsets — decodeView yields the same
// Message decode does.
func TestDecodeViewMatchesDecode(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Message{
			From:    rng.Intn(64),
			To:      rng.Intn(64),
			Msg:     rng.Intn(1 << 20),
			Epoch:   uint64(rng.Intn(100)),
			Index:   rng.Intn(1000),
			Ord:     rng.Intn(1000),
			Payload: make([]byte, rng.Intn(64)),
		}
		rng.Read(m.Payload)
		if rng.Intn(2) == 0 {
			m.Sparse = true
			m.Entries = make(vclock.Delta, rng.Intn(8))
			for i := range m.Entries {
				m.Entries[i] = vclock.Entry{K: i * 3, V: rng.Intn(1000)}
			}
		} else {
			m.DV = make([]int, rng.Intn(16))
			for i := range m.DV {
				m.DV[i] = rng.Intn(1000)
			}
		}
		// Encode at a random byte offset inside a larger buffer so the view
		// path sees both aliasable (8-aligned) and fallback-copy frames.
		pad := rng.Intn(16)
		frame := appendEncode(make([]byte, pad, pad+256), &m)[pad:]
		want, werr := decode(frame)
		var got Message
		gerr := decodeView(frame, &got)
		if werr != nil || gerr != nil {
			return false
		}
		return reflect.DeepEqual(want, cloneMessage(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeIntoReusedMessage pins the reset the read path relies on: it
// decodes every frame of a stream into the same batch slot, so a frame must
// come out of a reused Message exactly as it comes out of a fresh one. A
// seeded stream mixes full and sparse frames, empty entry lists, n = 0
// vectors, and frames with and without payload; each is decoded into one
// reused target, copying and zero-copy alike, and compared with a fresh
// Decode of the same bytes — so a sparse frame after a full one keeps no
// stale DV, a full one after a sparse one no stale Entries or Ord.
func TestDecodeIntoReusedMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var copied, viewed Message
	for i := 0; i < 2000; i++ {
		m := Message{
			From: rng.Intn(8), To: rng.Intn(8), Msg: rng.Intn(1 << 20),
			Epoch: uint64(rng.Intn(4)), Index: rng.Intn(100), Seq: uint64(i),
		}
		if rng.Intn(2) == 0 {
			m.Payload = make([]byte, 1+rng.Intn(32))
			rng.Read(m.Payload)
		}
		switch rng.Intn(4) {
		case 0: // sparse, possibly with no entry at all
			m.Sparse, m.Ord = true, rng.Intn(1000)
			m.Entries = make(vclock.Delta, rng.Intn(3))
			for k := range m.Entries {
				m.Entries[k] = vclock.Entry{K: 2*k + rng.Intn(2), V: rng.Intn(1000)}
			}
		case 1: // an n = 0 vector
			m.DV = []int{}
		default:
			m.DV = make([]int, 1+rng.Intn(8))
			for k := range m.DV {
				m.DV[k] = rng.Intn(1000)
			}
		}
		frame := Encode(m)
		want, err := Decode(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := decodeFrame(frame, false, &copied); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(copied, want) {
			t.Fatalf("frame %d decoded into a reused message:\n got %+v\nwant %+v", i, copied, want)
		}
		if err := decodeView(frame, &viewed); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := cloneMessage(viewed); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d viewed into a reused message:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decode([]byte("nope")); err == nil {
		t.Fatal("garbage should not decode")
	}
	if _, err := decode(nil); err == nil {
		t.Fatal("empty payload should not decode")
	}
}

// TestTCPMeshDelivery sends messages between all pairs over real sockets
// and checks every message arrives intact exactly once.
func TestTCPMeshDelivery(t *testing.T) {
	const n = 4
	mesh, err := NewTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()

	var mu sync.Mutex
	got := map[int]Message{}
	done := make(chan struct{}, 1)
	const total = n * (n - 1) * 5
	if err := start(mesh, func(m Message) {
		mu.Lock()
		got[m.Msg] = cloneMessage(m)
		if len(got) == total {
			select {
			case done <- struct{}{}:
			default:
			}
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := mesh.SendBatch(1, 1, []Message{{From: 1, To: 1, DV: []int{0, 0, 0}}}); err == nil {
		t.Fatal("a node sent to itself: there is no such pair")
	}
	id := 0
	for round := 0; round < 5; round++ {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				m := Message{From: from, To: to, Msg: id, Epoch: 1, Index: round, DV: []int{id, round, from}}
				if err := send(mesh, m); err != nil {
					t.Fatal(err)
				}
				id++
			}
		}
	}

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		mu.Lock()
		t.Fatalf("timeout: delivered %d of %d", len(got), total)
	}

	mu.Lock()
	defer mu.Unlock()
	for k := 0; k < total; k++ {
		m, ok := got[k]
		if !ok {
			t.Fatalf("message %d lost", k)
		}
		if m.Msg != k || len(m.DV) != 3 || m.DV[0] != k {
			t.Fatalf("message %d corrupted: %+v", k, m)
		}
	}
}

// TestTCPPerConnectionOrdering checks frames between one pair arrive in
// send order (TCP guarantee + framing correctness).
func TestTCPPerConnectionOrdering(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()

	var mu sync.Mutex
	var order []int
	done := make(chan struct{}, 1)
	const total = 200
	if err := start(mesh, func(m Message) {
		mu.Lock()
		order = append(order, m.Msg)
		if len(order) == total {
			select {
			case done <- struct{}{}:
			default:
			}
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := send(mesh, Message{From: 0, To: 1, Msg: i, DV: []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; per-connection FIFO violated", i, v)
		}
	}
}

// TestTCPConcurrentClose pins the Close fix: concurrent Close calls must
// all return after teardown, without the double-close panic the old
// check-then-close on t.closed allowed.
func TestTCPConcurrentClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		mesh, err := NewTCP(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := start(mesh, func(Message) {}); err != nil {
			t.Fatal(err)
		}
		if err := send(mesh, Message{From: 0, To: 1, DV: []int{1, 0, 0}}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := mesh.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestTCPDialDoesNotHoldMeshLock pins the dial-isolation fix: a hung dial
// to one peer must not stall senders to other peers, because the dial
// happens under the per-pair lock, not the mesh-wide one.
func TestTCPDialDoesNotHoldMeshLock(t *testing.T) {
	mesh, err := NewTCP(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	if err := start(mesh, func(Message) {}); err != nil {
		t.Fatal(err)
	}

	realDial := mesh.dial
	release := make(chan struct{})
	mesh.dial = func(peer int) (net.Conn, error) {
		if peer == 1 {
			<-release // a peer whose dial hangs
		}
		return realDial(peer)
	}
	defer close(release)

	started := make(chan struct{})
	go func() {
		close(started)
		_ = send(mesh, Message{From: 0, To: 1, DV: []int{1, 0, 0}})
	}()
	<-started

	done := make(chan error, 1)
	go func() {
		done <- send(mesh, Message{From: 0, To: 2, DV: []int{1, 0, 0}})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send to healthy peer failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send to a healthy peer stalled behind another peer's hung dial")
	}
}

// TestTCPDialFailureAllowsRetry checks a failed dial poisons nothing and
// paces nothing: the pair carried nothing, so the very next Send to the same
// peer dials afresh.
func TestTCPDialFailureAllowsRetry(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	got := make(chan Message, 1)
	if err := start(mesh, func(m Message) { got <- cloneMessage(m) }); err != nil {
		t.Fatal(err)
	}

	realDial := mesh.dial
	fail := true
	mesh.dial = func(peer int) (net.Conn, error) {
		if fail {
			return nil, errors.New("injected dial failure")
		}
		return realDial(peer)
	}
	if err := send(mesh, Message{From: 0, To: 1, DV: []int{1, 0}}); err == nil {
		t.Fatal("send over a failing dial should error")
	}
	fail = false
	if err := send(mesh, Message{From: 0, To: 1, Msg: 7, DV: []int{1, 0}}); err != nil {
		t.Fatalf("retry right after the dial failure: %v", err)
	}
	select {
	case m := <-got:
		if m.Msg != 7 {
			t.Fatalf("wrong message after retry: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message after dial retry never arrived")
	}
}

// TestTCPBadFrameIsLoud pins the poisoned-link fix: an undecodable frame
// kills the connection with a counter increment and an error callback,
// not a silent return. The frame is one the reader refuses (a sparse entry
// with a negative value), sent on the pair's own connection: a connection
// the mesh did not dial belongs to no pair and is closed unread.
func TestTCPBadFrameIsLoud(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	type linkErr struct {
		from, to int
	}
	errCh := make(chan linkErr, 1)
	mesh.OnFrameError = func(from, to int, err error) {
		select {
		case errCh <- linkErr{from, to}:
		default:
		}
	}
	if err := start(mesh, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := send(mesh, Message{From: 0, To: 1, Sparse: true, Entries: vclock.Delta{{K: 0, V: -1}}}); err != nil {
		t.Fatal(err)
	}

	select {
	case le := <-errCh:
		if le.from != 0 || le.to != 1 {
			t.Fatalf("error reported for wrong pair: %+v", le)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("poisoned frame produced no error callback")
	}
	if got := reg.Snapshot().Counter(obs.TransportBadFrames); got != 1 {
		t.Fatalf("%s = %d after one poisoned frame, want 1", obs.TransportBadFrames, got)
	}
}

// TestTCPSendBatchOrdered checks a batched write delivers every frame in
// order, and that the receiver sees coalesced batches, not one callback
// per frame forced by the transport.
func TestTCPSendBatchOrdered(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	var mu sync.Mutex
	var order []int
	done := make(chan struct{}, 1)
	const total = 300
	if err := mesh.StartBatched(func(ms []Message) {
		mu.Lock()
		for _, m := range ms {
			order = append(order, m.Msg)
		}
		if len(order) == total {
			select {
			case done <- struct{}{}:
			default:
			}
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	batch := make([]Message, 0, 30)
	id := 0
	for id < total {
		batch = batch[:0]
		for k := 0; k < 30 && id < total; k++ {
			batch = append(batch, Message{From: 0, To: 1, Msg: id, DV: []int{id, 0}})
			id++
		}
		nacc, err := mesh.SendBatch(0, 1, batch)
		if err != nil || nacc != len(batch) {
			t.Fatalf("SendBatch accepted %d of %d: %v", nacc, len(batch), err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		mu.Lock()
		t.Fatalf("timeout: %d of %d delivered", len(order), total)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; batched framing broke FIFO", i, v)
		}
	}
}

// TestTCPLinkDownAccounting pins the lost-frame reconciliation: frames
// written to a stream whose reader never consumes them are reported
// through OnLinkDown, so an engine's in-flight accounting can release
// them instead of hanging forever.
func TestTCPLinkDownAccounting(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	lost := make(chan int, 1)
	mesh.OnLinkDown = func(from, to, n int) {
		if from == 0 && to == 1 {
			lost <- n
		}
	}
	// No StartBatched: the mesh never accepts, so written frames sit in the
	// kernel's socket buffers forever — exactly the shape of a receiver
	// torn down mid-flight. Close must reconcile them.
	const frames = 5
	for i := 0; i < frames; i++ {
		if err := send(mesh, Message{From: 0, To: 1, Msg: i, DV: []int{i, 0}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-lost:
		if n != frames {
			t.Fatalf("reconciled %d lost frames, want %d", n, frames)
		}
	default:
		t.Fatal("no OnLinkDown report for undelivered frames")
	}
}

// TestTCPDrainWaitsForDelivery pins what the runtime's cut waits on: Drain
// returns only once every frame the direction accepted has been handed to
// the deliver callback and the callback has returned. A pair that never
// talked, and the reverse direction, have nothing to wait for. The
// connection is not touched: the pair carries on after the drain on the
// one connection it dialed.
func TestTCPDrainWaitsForDelivery(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	var delivered atomic.Int64
	if err := mesh.StartBatched(func(ms []Message) {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		delivered.Add(int64(len(ms)))
	}); err != nil {
		t.Fatal(err)
	}
	mesh.Drain(0, 1) // no connection yet: nothing to wait for
	const frames = 20
	for i := 0; i < frames; i++ {
		if err := send(mesh, Message{From: 0, To: 1, Msg: i, DV: []int{i, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	<-entered
	mesh.Drain(1, 0) // the reverse direction carried nothing
	drained := make(chan struct{})
	go func() {
		mesh.Drain(0, 1)
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while the receiver held a batch")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-drained
	if got := delivered.Load(); got != frames {
		t.Fatalf("Drain returned with %d of %d frames delivered", got, frames)
	}
	if err := send(mesh, Message{From: 0, To: 1, Msg: frames, DV: []int{frames, 0}}); err != nil {
		t.Fatalf("send after the drain: %v", err)
	}
	mesh.Drain(0, 1)
	if got, dials := delivered.Load(), reg.Counter(obs.TransportDials).Value(); got != frames+1 || dials != 1 {
		t.Fatalf("%d frames delivered over %d dials, want %d over 1", got, dials, frames+1)
	}
}

// TestTCPDrainReturnsAtClose: frames written into a connection nobody
// reads (no StartBatched, so nothing accepts) are never delivered, and a
// Drain waiting on them returns when Close reaps the direction and reports
// them lost.
func TestTCPDrainReturnsAtClose(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	var lost atomic.Int64
	mesh.OnLinkDown = func(_, _, n int) { lost.Add(int64(n)) }
	if err := send(mesh, Message{From: 0, To: 1, DV: []int{1, 0}}); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		mesh.Drain(0, 1)
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned with a frame undelivered")
	case <-time.After(50 * time.Millisecond):
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung past Close")
	}
	if lost.Load() != 1 {
		t.Fatalf("%d frames reported lost, want 1", lost.Load())
	}
}

// TestTCPLoudDeathIsFinal: a frame the reader refuses kills the pair's one
// connection, both ways, for the mesh's life — every later send either way
// is refused with ErrLinkDown, nothing redials, and the frames the dead
// connection carried undelivered are reported lost, the refused ones not.
func TestTCPLoudDeathIsFinal(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	var lost atomic.Int64
	mesh.OnLinkDown = func(_, _, n int) { lost.Add(int64(n)) }
	mesh.OnFrameError = func(int, int, error) {}
	if err := start(mesh, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	poison := Message{From: 0, To: 1, Sparse: true, Entries: vclock.Delta{{K: 0, V: -1}}}
	if n, err := mesh.SendBatch(0, 1, []Message{poison, poison, poison}); n != 3 || err != nil {
		t.Fatalf("the poisoned batch: %d accepted, %v", n, err)
	}
	mesh.Drain(0, 1) // returns once the reader has died and reported
	if bad := reg.Snapshot().Counter(obs.TransportBadFrames); lost.Load() != 3 || bad != 1 {
		t.Fatalf("%d frames reported lost and %d bad frames, want 3 and 1", lost.Load(), bad)
	}
	for _, p := range [][2]int{{0, 1}, {1, 0}} {
		if err := send(mesh, Message{From: p[0], To: p[1], DV: []int{1, 1}}); !errors.Is(err, ErrLinkDown) {
			t.Fatalf("%d→%d after the loud death: %v, want ErrLinkDown", p[0], p[1], err)
		}
	}
	if dials := reg.Counter(obs.TransportDials).Value(); dials != 1 || lost.Load() != 3 {
		t.Fatalf("%d dials and %d lost after the refusals, want 1 and 3", dials, lost.Load())
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := start(mesh, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := send(mesh, Message{From: 0, To: 1, Msg: 0, DV: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := send(mesh, Message{From: 0, To: 1, Msg: 1, DV: []int{1}}); err == nil {
		t.Log("send after close unexpectedly succeeded (buffered); acceptable")
	}
}

// TestNoGoroutineLeakAfterTCPClose guards Close with live traffic in both
// directions between every pair: accept loops, both readers of every
// connection and any dial in progress are gone when it returns — the
// goroutine count is back at its value before the mesh existed.
func TestNoGoroutineLeakAfterTCPClose(t *testing.T) {
	const n = 3
	base := runtime.NumGoroutine()
	mesh, err := NewTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	if err := start(mesh, func(Message) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			if err := send(mesh, Message{From: from, To: to, DV: make([]int, n)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every direction has carried a frame end to end, so each has a reader.
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() < n*(n-1); {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d frames", delivered.Load(), n*(n-1))
		}
		time.Sleep(time.Millisecond)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Settle(t, base)
}

// TestTCPSendersRaceClose races four senders on a pair against Close. One
// way, all four send 0→1; both ways, two send each way over the pair's one
// connection. For each direction, every accepted frame must be delivered
// exactly once or reported lost through OnLinkDown; OnLinkDown fires at most
// once per direction and, like the direction's deliveries, never
// concurrently with another delivery or report of that direction; and the
// pair dials once.
func TestTCPSendersRaceClose(t *testing.T) {
	t.Run("one-way", func(t *testing.T) { raceClose(t, false) })
	t.Run("both-ways", func(t *testing.T) { raceClose(t, true) })
}

func raceClose(t *testing.T, bothWays bool) {
	// Per direction: 0 is 0→1, 1 is 1→0.
	type dirStats struct {
		mu               sync.Mutex
		seen             map[int]bool
		dups             int
		busy, overlapped atomic.Bool
		reports, lost    atomic.Int64
		accepted         atomic.Int64
	}
	for round := 0; round < 3; round++ {
		mesh, err := NewTCP(2)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		mesh.SetObs(reg)
		var dirs [2]dirStats
		for i := range dirs {
			dirs[i].seen = map[int]bool{}
		}
		enter := func(ds *dirStats) {
			if ds.busy.Swap(true) {
				ds.overlapped.Store(true)
			}
		}
		mesh.OnLinkDown = func(from, _, n int) {
			ds := &dirs[from]
			enter(ds)
			ds.reports.Add(1)
			ds.lost.Add(int64(n))
			ds.busy.Store(false)
		}
		if err := mesh.StartBatched(func(ms []Message) {
			ds := &dirs[ms[0].From]
			enter(ds)
			ds.mu.Lock()
			for _, m := range ms {
				if ds.seen[m.Msg] {
					ds.dups++
				}
				ds.seen[m.Msg] = true
			}
			ds.mu.Unlock()
			ds.busy.Store(false)
		}); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			from := 0
			if bothWays {
				from = g % 2
			}
			wg.Add(1)
			go func(g, from int) {
				defer wg.Done()
				batch := make([]Message, 3)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					for k := range batch {
						batch[k] = Message{From: from, To: 1 - from, Msg: g<<24 | (3*i + k), DV: []int{i, k}}
					}
					n, _ := mesh.SendBatch(from, 1-from, batch)
					dirs[from].accepted.Add(int64(n))
					runtime.Gosched() // let Close in at one processor too
				}
			}(g, from)
		}
		// Close once every direction in use has carried traffic.
		for deadline := time.Now().Add(5 * time.Second); dirs[0].accepted.Load() < 100 || bothWays && dirs[1].accepted.Load() < 100; {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: accepted %d 0→1 and %d 1→0 frames in 5 s", round, dirs[0].accepted.Load(), dirs[1].accepted.Load())
			}
			time.Sleep(time.Millisecond)
		}
		if err := mesh.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()

		if dials := reg.Counter(obs.TransportDials).Value(); dials != 1 {
			t.Fatalf("round %d: %d dials for one pair", round, dials)
		}
		for i := range dirs {
			ds := &dirs[i]
			if !bothWays && i == 1 {
				if ds.accepted.Load()+int64(len(ds.seen))+ds.lost.Load() != 0 {
					t.Fatalf("round %d: traffic 1→0 on a pair only used 0→1", round)
				}
				continue
			}
			if ds.dups != 0 {
				t.Fatalf("round %d, %d→%d: %d frames delivered twice", round, i, 1-i, ds.dups)
			}
			if got := int64(len(ds.seen)) + ds.lost.Load(); got != ds.accepted.Load() {
				t.Fatalf("round %d, %d→%d: %d delivered + %d lost, but %d accepted", round, i, 1-i, len(ds.seen), ds.lost.Load(), ds.accepted.Load())
			}
			if ds.reports.Load() > 1 {
				t.Fatalf("round %d, %d→%d: %d OnLinkDown reports for one connection", round, i, 1-i, ds.reports.Load())
			}
			if ds.overlapped.Load() {
				t.Fatalf("round %d, %d→%d: a delivery or OnLinkDown of the direction overlapped another", round, i, 1-i)
			}
		}
	}
}

// TestTCPOneDialPerPair pins the connection count: an n = 32 mesh carries
// one frame on each of its 992 directed pairs over 496 connections, one per
// unordered pair — 496 dials and 2·496 descriptors, the two ends of each —
// and Close gives every descriptor back.
func TestTCPOneDialPerPair(t *testing.T) {
	const n = 32
	const directed, pairs = n * (n - 1), n * (n - 1) / 2
	mesh, err := NewTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	var delivered atomic.Int64
	if err := mesh.StartBatched(func(ms []Message) { delivered.Add(int64(len(ms))) }); err != nil {
		t.Fatal(err)
	}
	base := leakcheck.FDs(t)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to {
				if err := send(mesh, Message{From: from, To: to, Sparse: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); delivered.Load() < directed; {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d frames", delivered.Load(), directed)
		}
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != directed {
		t.Fatalf("delivered %d frames, want %d", got, directed)
	}
	if got := reg.Counter(obs.TransportDials).Value(); got != pairs {
		t.Fatalf("%d dials for %d pairs", got, pairs)
	}
	if rise := leakcheck.FDs(t) - base; rise != 2*pairs {
		t.Fatalf("%d descriptors for %d connections, want %d", rise, pairs, 2*pairs)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.SettleFDs(t, base)
}

// TestTCPReverseSendWithoutAcceptorReturnsAtClose: on a mesh that never
// called StartBatched nothing accepts, so a first send against the dial's
// direction waits for an accepted end that never comes. Close releases it —
// long before the wait's own bound — with nothing accepted, and the frames
// the dial's direction wrote are reported lost; the refused direction
// reports nothing, since it took nothing.
func TestTCPReverseSendWithoutAcceptorReturnsAtClose(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	var lost [2]atomic.Int64
	mesh.OnLinkDown = func(from, _, n int) { lost[from].Add(int64(n)) }
	const frames = 3
	for i := 0; i < frames; i++ {
		if err := send(mesh, Message{From: 0, To: 1, Msg: i, DV: []int{i, 0}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := mesh.SendBatch(1, 0, []Message{{From: 1, To: 0, DV: []int{0, 1}}})
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("the reverse send returned before Close: %d accepted, %v", r.n, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	closed := time.Now()
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.n != 0 || r.err == nil {
			t.Fatalf("the reverse send accepted %d frames (%v) on a mesh that accepts nothing", r.n, r.err)
		}
		if waited := time.Since(closed); waited > dialTimeout/2 {
			t.Fatalf("the reverse send returned %v after Close", waited)
		}
	case <-time.After(dialTimeout + time.Second):
		t.Fatal("the reverse send hung past Close")
	}
	if lost[0].Load() != frames || lost[1].Load() != 0 {
		t.Fatalf("reported lost: %d 0→1 and %d 1→0, want %d and 0", lost[0].Load(), lost[1].Load(), frames)
	}
}

// TestTCPStreamHeapBounded pins what a direction in use costs at rest: an
// n = 32 mesh carries one small frame on each of its 992 directed pairs
// (over 496 connections), and the live heap it adds, divided by the
// directions, stays within 8 KiB — the direction's 4 KiB reader buffer plus
// its share of the connection. A reader holding a 64 KiB bufio.Reader and
// 64 frame slots read 75 KiB a direction here.
func TestTCPStreamHeapBounded(t *testing.T) {
	const n = 32
	const streams = n * (n - 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mesh, err := NewTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	var delivered atomic.Int64
	if err := mesh.StartBatched(func(ms []Message) { delivered.Add(int64(len(ms))) }); err != nil {
		t.Fatal(err)
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to {
				if err := send(mesh, Message{From: from, To: to, Sparse: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); delivered.Load() < streams; {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d frames", delivered.Load(), streams)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perStream := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / streams
	t.Logf("%d B of live heap per direction", perStream)
	if perStream > 8<<10 {
		t.Fatalf("%d B of live heap per direction, want at most %d", perStream, 8<<10)
	}
}
