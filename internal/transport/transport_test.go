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
	"repro/internal/vclock"
)

// cloneMessage deep-copies the variable-length sections of a Message. The
// Start/StartBatched ownership contract says DV, Entries, and Payload are
// views into transport-owned buffers valid only for the callback's duration;
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
		got, err := decode(appendEncode(nil, m))
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
		frame := appendEncode(make([]byte, pad, pad+256), m)[pad:]
		want, werr := decode(frame)
		got, gerr := decodeView(frame)
		if werr != nil || gerr != nil {
			return false
		}
		return reflect.DeepEqual(want, cloneMessage(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
	if err := mesh.Start(func(m Message) {
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

	id := 0
	for round := 0; round < 5; round++ {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				m := Message{From: from, To: to, Msg: id, Epoch: 1, Index: round, DV: []int{id, round, from}}
				if err := mesh.Send(m); err != nil {
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
	if err := mesh.Start(func(m Message) {
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
		if err := mesh.Send(Message{From: 0, To: 1, Msg: i, DV: []int{i}}); err != nil {
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
		if err := mesh.Start(func(Message) {}); err != nil {
			t.Fatal(err)
		}
		if err := mesh.Send(Message{From: 0, To: 1, DV: []int{1, 0, 0}}); err != nil {
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
	if err := mesh.Start(func(Message) {}); err != nil {
		t.Fatal(err)
	}

	realDial := mesh.dial
	release := make(chan struct{})
	mesh.dial = func(addr string) (net.Conn, error) {
		if addr == mesh.Addr(1) {
			<-release // a peer whose dial hangs
		}
		return realDial(addr)
	}
	defer close(release)

	started := make(chan struct{})
	go func() {
		close(started)
		_ = mesh.Send(Message{From: 0, To: 1, DV: []int{1, 0, 0}})
	}()
	<-started

	done := make(chan error, 1)
	go func() {
		done <- mesh.Send(Message{From: 0, To: 2, DV: []int{1, 0, 0}})
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
// paces nothing: the very next Send to the same peer dials afresh (when to
// try again is the caller's business — the runtime's link layer backs off).
func TestTCPDialFailureAllowsRetry(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	got := make(chan Message, 1)
	if err := mesh.Start(func(m Message) { got <- cloneMessage(m) }); err != nil {
		t.Fatal(err)
	}

	realDial := mesh.dial
	fail := true
	mesh.dial = func(addr string) (net.Conn, error) {
		if fail {
			return nil, errors.New("injected dial failure")
		}
		return realDial(addr)
	}
	if err := mesh.Send(Message{From: 0, To: 1, DV: []int{1, 0}}); err == nil {
		t.Fatal("send over a failing dial should error")
	}
	fail = false
	if err := mesh.Send(Message{From: 0, To: 1, Msg: 7, DV: []int{1, 0}}); err != nil {
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
// severs the connection with a counter increment and an error callback,
// not a silent return.
func TestTCPBadFrameIsLoud(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
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
	if err := mesh.Start(func(Message) {}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", mesh.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	var hello [24]byte
	putU64 := func(off int, v int64) {
		for i := 0; i < 8; i++ {
			hello[off+i] = byte(uint64(v) >> (8 * i))
		}
	}
	putU64(0, helloMagic)
	putU64(8, 0)
	putU64(16, 1)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	// A length prefix promising 16 bytes of garbage.
	frame := append([]byte{16, 0, 0, 0, 0, 0, 0, 0}, []byte("not a valid body")...)
	if _, err := conn.Write(frame); err != nil {
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
	if mesh.BadFrames() == 0 {
		t.Fatal("poisoned frame not counted")
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
	// No Start: the mesh never accepts, so written frames sit in the
	// kernel's socket buffers forever — exactly the shape of a receiver
	// torn down mid-flight. Close must reconcile them.
	const frames = 5
	for i := 0; i < frames; i++ {
		if err := mesh.Send(Message{From: 0, To: 1, Msg: i, DV: []int{i, 0}}); err != nil {
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

// TestTCPSeverThenRedial checks what is left of a link failure at this
// level: Sever kills the pair's stream exactly once, WaitReap returns when
// the dead stream's accounting is closed — every frame it carried delivered
// or reported through OnLinkDown — and nothing then keeps the pair from
// dialing afresh. Holding a pair cut is the caller's job (the runtime's link
// layer stops sending), not the mesh's.
func TestTCPSeverThenRedial(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	var delivered, lost atomic.Int64
	mesh.OnLinkDown = func(_, _, n int) { lost.Add(int64(n)) }
	if err := mesh.Start(func(Message) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if mesh.Sever(0, 1) {
		t.Fatal("severed a pair that never dialed")
	}
	const frames = 20
	for i := 0; i < frames; i++ {
		if err := mesh.Send(Message{From: 0, To: 1, Msg: i, DV: []int{i, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if !mesh.Sever(0, 1) {
		t.Fatal("no live link to sever")
	}
	if mesh.Sever(0, 1) {
		t.Fatal("the same stream died twice")
	}
	mesh.WaitReap(0, 1)
	if got := delivered.Load() + lost.Load(); got != frames {
		t.Fatalf("after the reap %d delivered + %d lost, want %d in all", delivered.Load(), lost.Load(), frames)
	}
	before := delivered.Load()
	if err := mesh.Send(Message{From: 0, To: 1, Msg: frames, DV: []int{frames, 0}}); err != nil {
		t.Fatalf("send after the reap did not redial: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() == before; {
		if time.Now().After(deadline) {
			t.Fatal("the redialed stream delivered nothing")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Start(func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Send(Message{From: 0, To: 1, Msg: 0, DV: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Send(Message{From: 0, To: 1, Msg: 1, DV: []int{1}}); err == nil {
		t.Log("send after close unexpectedly succeeded (buffered); acceptable")
	}
}

// TestNoGoroutineLeakAfterTCPClose guards Close with live streams in both
// directions between every pair: accept loops, per-connection readers and
// any redial in progress are gone when it returns — the goroutine count is
// back at its value before the mesh existed.
func TestNoGoroutineLeakAfterTCPClose(t *testing.T) {
	const n = 3
	base := runtime.NumGoroutine()
	mesh, err := NewTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	if err := mesh.Start(func(Message) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			if err := mesh.Send(Message{From: from, To: to, DV: make([]int, n)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every stream has carried a frame end to end, so each has a reader.
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
