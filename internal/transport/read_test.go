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
	"time"

	"repro/internal/obs"
)

// TestTCPOneReadPerArrival pins the reader's cost on a real socket: a
// ping-pong of single frames, each arriving alone, costs one read(2) a
// frame. A reader that reads until the socket would block pays two, the
// frame and an EAGAIN: counted by the process's read syscalls
// (/proc/self/io syscr), the same exchange reads 2.0 a frame that way. A
// read that brings several frames still reads again, to EAGAIN: a stream
// faster than its deliveries may have more waiting by then.
func TestTCPOneReadPerArrival(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	got := make(chan struct{}, 1)
	if err := mesh.StartBatched(func(ms []Message) {
		for range ms {
			got <- struct{}{}
		}
	}); err != nil {
		t.Fatal(err)
	}
	ping := []Message{{From: 0, To: 1, DV: []int{1, 2}, Payload: make([]byte, 16)}}
	pong := []Message{{From: 1, To: 0, DV: []int{3, 4}, Payload: make([]byte, 16)}}
	exchange := func() {
		for _, b := range [][]Message{ping, pong} {
			if n, err := mesh.SendBatch(b[0].From, b[0].To, b); n != 1 || err != nil {
				t.Fatalf("SendBatch %d→%d: %d accepted, %v", b[0].From, b[0].To, n, err)
			}
			<-got
		}
	}
	exchange() // opens both directions and starts both readers
	// A frame's read is counted before its delivery, which the exchange
	// waits for, so the count is settled between exchanges.
	reads := reg.Counter(obs.TransportReads)
	r0 := reads.Value()
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		exchange()
	}
	r, f := reads.Value()-r0, uint64(2*rounds)
	if per := float64(r) / float64(f); per > 1.05 {
		t.Fatalf("%d reads for %d single frames: %.3f a frame, want at most 1.05", r, f, per)
	}

	three := []Message{ping[0], ping[0], ping[0]} // one write, one arrival
	r0 = reads.Value()
	if n, err := mesh.SendBatch(0, 1, three); n != 3 || err != nil {
		t.Fatalf("SendBatch of three: %d accepted, %v", n, err)
	}
	for range three {
		<-got
	}
	// The second read follows the last delivery's return.
	for deadline := time.Now().Add(5 * time.Second); reads.Value()-r0 < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if r := reads.Value() - r0; r != 2 {
		t.Fatalf("three frames in one arrival took %d reads, want 2: theirs and an EAGAIN", r)
	}
}

// TestTCPDribbledStream feeds one direction's reader, on a real socket, a
// frame stream written in seeded cuts with pauses between them, so the
// reader parks mid-header and mid-body and resumes on the next arrival —
// one frame over 64 KiB among them, so the buffer grows mid-frame too.
// Every frame arrives intact and in order.
func TestTCPDribbledStream(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	spec := make([]byte, 4*60)
	rng.Read(spec)
	spec[0] |= 4 // the one payload over 64 KiB
	msgs, data := streamFrames(spec)

	var got []Message
	mesh := &TCP{n: 2, closed: make(chan struct{})}
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	pc := newPairConn(0, 1)
	mesh.deliver = func(ms []Message) {
		for i := range ms {
			got = append(got, cloneMessage(ms[i]))
		}
	}
	mesh.OnFrameError = func(_, _ int, err error) { t.Errorf("frame error: %v", err) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		mesh.readLoop(server, pc, &pc.dirs[0])
	}()

	writes := 0
	for off := 0; off < len(data); writes++ {
		cut := 1 + rng.Intn(2000)
		if rng.Intn(3) == 0 {
			cut = 1 + rng.Intn(8) // ends inside the next length prefix or header word
		}
		cut = min(cut, len(data)-off)
		if _, err := client.Write(data[off : off+cut]); err != nil {
			t.Fatal(err)
		}
		off += cut
		time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
	}
	_ = client.Close() // EOF: the stream ends cleanly after its last frame
	<-done
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("%d of %d frames arrived, or arrived changed", len(got), len(msgs))
	}
	t.Logf("%d frames (%d bytes) in %d writes took %d reads", len(msgs), len(data), writes,
		reg.Counter(obs.TransportReads).Value())
}

// TestTCPNothingReadAfterKill kills a connection while its reader is inside
// a delivery, with more frames already waiting in its socket: once the
// delivery returns the reader reads nothing more and delivers nothing more,
// and the frames it never read are reported lost.
func TestTCPNothingReadAfterKill(t *testing.T) {
	mesh, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	var lost, delivered atomic.Int64
	mesh.OnLinkDown = func(_, _, n int) { lost.Add(int64(n)) }
	entered, release := make(chan struct{}), make(chan struct{})
	if err := mesh.StartBatched(func(ms []Message) {
		if delivered.Add(int64(len(ms))) == 1 {
			close(entered)
			<-release
		}
	}); err != nil {
		t.Fatal(err)
	}
	m := Message{From: 0, To: 1, DV: []int{1, 1}}
	if n, err := mesh.SendBatch(0, 1, []Message{m}); n != 1 || err != nil {
		t.Fatalf("first frame: %d accepted, %v", n, err)
	}
	<-entered
	// The reader is in its callback; these two wait in its socket.
	if n, err := mesh.SendBatch(0, 1, []Message{m, m}); n != 2 || err != nil {
		t.Fatalf("waiting frames: %d accepted, %v", n, err)
	}
	reads := reg.Counter(obs.TransportReads)
	before := reads.Value()
	pc := mesh.slot(0, 1).Load()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		pc.kill() // closing the reader's end waits for its delivery to return
	}()
	for !pc.dead.Load() {
		runtime.Gosched()
	}
	close(release)
	<-killed
	mesh.Drain(0, 1) // returns once the reader is gone and its losses reported
	if d, r := delivered.Load(), reads.Value()-before; d != 1 || r != 0 || lost.Load() != 2 {
		t.Fatalf("after the kill: %d delivered, %d reads, %d lost; want 1, 0 and 2", d, r, lost.Load())
	}
}

// TestTCPFrameOffItsStream sends, on a live 0→1 stream, a hand-written
// frame that names another in-range endpoint: the receiver would route the
// batch by its first frame and charge each frame to its sender's order, so
// the frame is a bad frame — counted, reported, and the link dies, with
// the frames behind it lost and the frame before it delivered.
func TestTCPFrameOffItsStream(t *testing.T) {
	good := Message{From: 0, To: 1, DV: []int{1, 1, 1}}
	for _, bad := range []Message{
		{From: 2, To: 1, DV: []int{2, 2, 2}}, // another sender's frame
		{From: 0, To: 2, DV: []int{3, 3, 3}}, // a frame for another receiver
	} {
		mesh, err := NewTCP(3)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		mesh.SetObs(reg)
		var mu sync.Mutex
		var got []Message
		var reported [][2]int
		var lost atomic.Int64
		mesh.OnFrameError = func(from, to int, _ error) {
			mu.Lock()
			reported = append(reported, [2]int{from, to})
			mu.Unlock()
		}
		mesh.OnLinkDown = func(_, _, n int) { lost.Add(int64(n)) }
		if err := start(mesh, func(m Message) {
			mu.Lock()
			got = append(got, cloneMessage(m))
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		if n, err := mesh.SendBatch(0, 1, []Message{good, bad, good}); n != 3 || err != nil {
			t.Fatalf("%d→%d frame: %d accepted, %v", bad.From, bad.To, n, err)
		}
		mesh.Drain(0, 1) // returns once the reader has died and reported
		mu.Lock()
		first := len(got) == 1 && reflect.DeepEqual(got[0].DV, good.DV)
		if !first || !reflect.DeepEqual(reported, [][2]int{{0, 1}}) || lost.Load() != 2 {
			t.Errorf("%d→%d frame on the 0→1 stream: delivered %v, reported %v, %d lost; want the first frame, [0 1], 2",
				bad.From, bad.To, got, reported, lost.Load())
		}
		mu.Unlock()
		if n := reg.Snapshot().Counter(obs.TransportBadFrames); n != 1 {
			t.Errorf("%d→%d frame: transport.bad_frames = %d, want 1", bad.From, bad.To, n)
		}
		if err := send(mesh, good); !errors.Is(err, ErrLinkDown) {
			t.Errorf("%d→%d frame: a send after it: %v, want ErrLinkDown", bad.From, bad.To, err)
		}
		_ = mesh.Close()
	}
}
