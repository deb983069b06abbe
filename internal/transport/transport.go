// Package transport is the socket wire of a live cluster: a TCP mesh that
// sends every application message — dependency vector piggyback included —
// through real loopback sockets with length-prefixed binary framing, so the
// live-cluster experiments exercise a genuine network path: encoding, kernel
// buffering, per-connection ordering and cross-connection reordering. Like
// the paper's channels, one connection joins each pair of processes for the
// mesh's life and carries both directions, so one direction's ACKs ride the
// other's data. It carries frames, waits for a direction to drain (Drain)
// and accounts, per direction, for what a loudly dead connection or Close
// stranded (OnLinkDown); which pairs may talk, and what waits behind a cut,
// are decided once, for every wire, by the link layer of internal/runtime —
// whose other wire is an in-process hand-off.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Message is the wire unit: one application message's control information.
// State carried by real applications would ride alongside; the experiments
// only need the middleware fields.
type Message struct {
	From    int
	To      int
	Msg     int          // message id, unique per sender: (From, Msg) names it
	Epoch   uint64       // network epoch; stale messages are dropped as lost
	Index   int          // protocol-specific index (BCS)
	Ord     int          // per-(From,To) send order (compressed piggybacks)
	Seq     uint64       // reserved: the frame carries it, no sender stamps it
	Sparse  bool         // Entries, not DV, carry the piggyback
	DV      []int        // piggybacked dependency vector (full frames)
	Entries vclock.Delta // changed entries (sparse frames), carried natively
	Payload []byte       // application payload
}

const magic = int64(0x52445457495245) // "RDTWIRE"

// Validate checks a decoded message against the cluster it is addressed
// to: endpoints in range and a piggyback sized for n processes. Decode can
// only check structure, and the mesh itself carries any payload its
// framing accepts; the cluster's receive path (runtime.Cluster.onWire)
// runs this semantic check before the message touches a kernel, so a
// damaged frame is dropped as corrupt instead of indexing a dependency
// vector out of range.
func (m *Message) Validate(n int) error {
	if m.From < 0 || m.From >= n || m.To < 0 || m.To >= n {
		return fmt.Errorf("transport: endpoints %d→%d outside %d-process cluster", m.From, m.To, n)
	}
	if m.Sparse {
		if err := m.Entries.Validate(n); err != nil {
			return fmt.Errorf("transport: %w", err)
		}
		return nil
	}
	if len(m.DV) != n {
		return fmt.Errorf("transport: %d-entry vector in a %d-process cluster", len(m.DV), n)
	}
	return nil
}

// Encode frames a message into its wire form. Exported for the end-to-end
// benchmark (benchmark/layers.go), which times the framing layer.
func Encode(m Message) []byte { return appendEncode(nil, &m) }

// Decode parses one wire frame. The returned message owns its memory (the
// variable-length sections are copied out of b).
func Decode(b []byte) (Message, error) { return decode(b) }

// encodedSize is the exact wire size of a message (excluding the frame
// length prefix). A sparse frame spends two words per changed entry
// instead of one per process — the wire cost is O(changed), not O(n).
func encodedSize(m *Message) int {
	if m.Sparse {
		return 8*(11+2*len(m.Entries)) + len(m.Payload)
	}
	return 8*(11+len(m.DV)) + len(m.Payload)
}

// appendEncode frames a message — magic, fixed header, vector length,
// entries, payload — appending to buf. Sized exactly up front, the whole
// frame costs at most one allocation (none when the caller reuses a
// buffer); the previous bytes.Buffer + binary.Write form allocated per
// field on every message. Sparse frames carry (k, v) pairs natively, so
// the engines hand the kernel's entries straight to the wire and back
// without flattening.
func appendEncode(buf []byte, m *Message) []byte {
	buf = slices.Grow(buf, encodedSize(m))
	w := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	w(magic)
	w(int64(m.From))
	w(int64(m.To))
	w(int64(m.Msg))
	w(int64(m.Epoch))
	w(int64(m.Index))
	w(int64(m.Ord))
	w(int64(m.Seq))
	if m.Sparse {
		w(1)
		w(int64(len(m.Entries)))
		for _, e := range m.Entries {
			w(int64(e.K))
			w(int64(e.V))
		}
	} else {
		w(0)
		w(int64(len(m.DV)))
		for _, v := range m.DV {
			w(int64(v))
		}
	}
	w(int64(len(m.Payload)))
	return append(buf, m.Payload...)
}

// appendFrame appends m's stream frame to buf: a length prefix, then the
// encoding padded with zeros to a whole number of 8-byte words inside that
// length (decodeFrame ignores bytes after the payload). Every frame of a
// direction then starts word-aligned in its reader's buffer, so the reader
// decodes each one in place.
func appendFrame(buf []byte, m *Message) []byte {
	size := encodedSize(m)
	pad := -size & 7
	buf = slices.Grow(buf, 8+size+pad)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(size+pad))
	buf = appendEncode(buf, m)
	end := len(buf) + pad // within the capacity grown above
	clear(buf[len(buf):end])
	return buf[:end]
}

// decode parses one frame payload, copying the entries, vector and payload
// out of b — the portable path, and the public Decode.
func decode(b []byte) (Message, error) {
	var m Message
	if err := decodeFrame(b, false, &m); err != nil {
		return Message{}, err
	}
	return m, nil
}

// decodeView parses one frame payload into m, zero-copy where the platform
// allows and b is word-aligned: Entries, DV and Payload alias b, so the
// message is valid only as long as b's bytes are. The mesh read path uses
// it, decoding each frame in place in the direction's read buffer straight
// into its batch slot; the buffer is not touched until the delivery
// callback returns, which is the ownership handoff StartBatched documents.
// A frame that is not word-aligned (a sender that does not pad) and every
// frame on targets without aliasing support are copied like decode.
func decodeView(b []byte, m *Message) error { return decodeFrame(b, aliasable(b), m) }

// decodeFrame parses one frame payload into m; view selects aliasing (the
// caller has verified the platform and alignment) or copying for the
// variable-length sections. m is reset first: a reused target — the read
// path's batch slot — must not carry a previous frame's vector, entries,
// order or payload into a frame that does not set them. On error m holds a
// partial frame and must not be used.
func decodeFrame(b []byte, view bool, m *Message) error {
	*m = Message{}
	off := 0
	rd := func() (int64, bool) {
		if off+8 > len(b) {
			return 0, false
		}
		v := int64(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		return v, true
	}
	mg, ok := rd()
	if !ok || mg != magic {
		return errors.New("transport: bad frame magic")
	}
	for _, f := range [...]*int{&m.From, &m.To, &m.Msg} {
		v, ok := rd()
		if !ok {
			return fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
		}
		*f = int(v)
	}
	ep, ok := rd()
	if !ok {
		return fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
	}
	m.Epoch = uint64(ep)
	idx, ok := rd()
	if !ok {
		return fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
	}
	m.Index = int(idx)
	ord, ok := rd()
	if !ok {
		return fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
	}
	m.Ord = int(ord)
	seq, ok := rd()
	if !ok {
		return fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
	}
	m.Seq = uint64(seq)
	kind, ok := rd()
	if !ok || (kind != 0 && kind != 1) {
		return errors.New("transport: bad piggyback kind")
	}
	m.Sparse = kind == 1
	if m.Sparse {
		n, ok := rd()
		if !ok || n < 0 || n > int64(len(b)-off)/16 {
			// Sparse entries are 16 bytes each; a count beyond the bytes
			// present is a corrupted frame and must not drive the allocation.
			return errors.New("transport: bad entry count")
		}
		if view {
			m.Entries = entriesView(b, off, int(n))
			off += int(n) * 16
		} else {
			m.Entries = make(vclock.Delta, n)
			for i := range m.Entries {
				k, _ := rd()
				v, _ := rd() // count was validated against the bytes present
				m.Entries[i] = vclock.Entry{K: int(k), V: int(v)}
			}
		}
		if err := m.Entries.Validate(1 << 20); err != nil {
			return fmt.Errorf("transport: bad sparse entries: %w", err)
		}
	} else {
		n, ok := rd()
		if !ok || n < 0 || n > int64(len(b)-off)/8 {
			// Entries are 8 bytes each; a length beyond the bytes present is
			// a corrupted frame and must not drive the allocation.
			return errors.New("transport: bad vector length")
		}
		if view {
			m.DV = intsView(b, off, int(n))
			off += int(n) * 8
		} else {
			m.DV = make([]int, n)
			for i := range m.DV {
				v, _ := rd() // length was validated against the bytes present
				m.DV[i] = int(v)
			}
		}
	}
	pl, ok := rd()
	if !ok || pl < 0 || pl > int64(len(b)-off) {
		return errors.New("transport: bad payload length")
	}
	if view {
		m.Payload = b[off : off+int(pl) : off+int(pl)]
	} else {
		m.Payload = make([]byte, pl)
		copy(m.Payload, b[off:off+int(pl)])
	}
	return nil
}

// ErrLinkDown is returned by SendBatch when a pair's connection cannot take
// frames: it died loudly (a write error, a frame its reader refused), a
// dial it waited on failed, or the mesh is closed. The refusal is immediate
// and final for the connection — nothing here retries or resends; a pair
// whose dial failed carried nothing, and its next send dials afresh.
var ErrLinkDown = errors.New("transport: link is down")

// dialTimeout bounds each connection attempt, and a first send against the
// dial's direction waiting for the far end to be accepted: a hung listener
// costs one sender a bounded stall, never an unbounded one.
const dialTimeout = 3 * time.Second

// helloMagic opens every connection: the dialer announces itself and the
// peer it dialed, so the acceptor can find the pair the connection belongs
// to and publish its end there.
const helloMagic = int64(0x52445448454C4C4F) // "RDTHELLO"

// helloSize is the connection hello: magic, dialer, peer.
const helloSize = 24

// maxInboundBatch bounds how many decoded frames one delivery callback
// receives: enough to amortize the receiver's per-batch locking, small
// enough to keep a single callback from monopolizing the node.
const maxInboundBatch = 64

// TCP is a full mesh of loopback TCP connections between n nodes: one
// connection per unordered pair {i, j}, dialed by the first sender in either
// direction, carrying both — the end at i writes i→j and reads j→i, and the
// end at j the reverse — and kept until Close. Sends are safe for
// concurrent use; received messages are handed to the deliver callback
// registered with StartBatched, one goroutine per direction in use.
//
// The mesh accounts every frame: a frame accepted by SendBatch is either
// handed to the deliver callback exactly once, or counted as lost — at the
// connection's loud death or at Close — through the OnLinkDown callback.
// Engines that track in-flight messages (runtime.Cluster.Quiesce) reconcile
// against it, so a dead connection cannot strand their accounting.
type TCP struct {
	n int
	// listener accepts every connection of the mesh: a connection's hello
	// names its pair, so one listener serves all n nodes.
	listener net.Listener

	// pairs[slot(i, j)] is the pair's connection, live or dead, or nil: a
	// send loads its slot and takes only its direction's lock. A connection
	// leaves its slot only when its dial fails, having carried nothing. mu
	// serializes what fills a slot, and what starts a reader, against
	// Close, which closes closed and snapshots the table under it.
	mu    sync.Mutex
	pairs []atomic.Pointer[pairConn]

	accMu    sync.Mutex
	accepted map[net.Conn]struct{} // live accepted conns, closed by Close

	deliver   func([]Message)
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	obs obs.TransportMetrics // zero (free) unless SetObs attached a registry

	// dial opens a connection to peer's side of the mesh: a keepalive-free
	// dial of the listener by default, a test hook otherwise.
	dial func(peer int) (net.Conn, error)

	// OnFrameError, if set before StartBatched, is called when a connection is
	// killed by an undecodable or oversized frame — a poisoned link. When
	// nil the event is logged; either way transport.bad_frames counts it, so
	// a poisoned link is loudly diagnosable instead of a mystery hang.
	OnFrameError func(from, to int, err error)

	// OnLinkDown, if set before StartBatched, reports frames that were
	// accepted by SendBatch but will never reach the deliver callback because
	// their connection died (its reader stopped, or frames still undelivered
	// at Close). It fires at most once per direction, after that direction's
	// reader has exited, and never concurrently with a delivery of the same
	// direction.
	OnLinkDown func(from, to int, lost int)
}

// pairConn is the connection between a pair {lo, hi}: one socket, and one
// direction for each way across it. The directions share the socket's life
// — a write error or a bad frame kills it for both — and nothing else: each
// has its own write lock and accounting, so a writer blocked one way never
// holds up the other.
type pairConn struct {
	dirs [2]direction // lo→hi, then hi→lo; dirs[s] writes on ends[s]

	// ends[0] and ends[1] are the socket's ends at lo and at hi, each set
	// once: the dialer's by the dial, before the hello goes out, and the
	// other by the acceptor's register.
	ends [2]atomic.Pointer[net.Conn]

	dialMu sync.Mutex
	dialer int // the node whose end dialed; -1 until a dial succeeds (guarded by dialMu)

	registered chan struct{} // closed when the accepted end is published
	killed     chan struct{} // closed by the kill that set dead

	// dead is deliberately outside every lock: a writer blocked on a full
	// socket holds its direction's lock for the whole Write, and the only
	// thing that unblocks it is closing the socket — so a reader's exit and
	// Close must be able to kill the connection without queueing behind it.
	dead atomic.Bool
}

// direction is one way across a connection, from → to: frames are written
// on the end at from and read on the end at to.
type direction struct {
	from, to int

	mu   sync.Mutex
	c    net.Conn // the end written on; nil until the direction's first send opens it (guarded by mu)
	buf  []byte   // reused frame buffer (guarded by mu)
	ends []int    // reused per-frame end offsets of buf (guarded by mu)
	sent int64    // frames fully written (guarded by mu)

	// delivered counts the frames the direction's reader has handed to the
	// deliver callback, once the callback returned; only that reader writes
	// it. sent − delivered is what the direction still carries.
	delivered atomic.Int64

	// Drain waits on drained, under waitMu, for delivered to reach sent or
	// for the reap; waiters tells the reader whether anyone does, so a
	// delivery costs one atomic load when nobody waits. reaped is set, under
	// waitMu, once the reader is gone and its losses are reported.
	waiters atomic.Int32
	waitMu  sync.Mutex
	drained sync.Cond
	reaped  bool
}

func newPairConn(lo, hi int) *pairConn {
	pc := &pairConn{dialer: -1, registered: make(chan struct{}), killed: make(chan struct{})}
	pc.dirs[0] = direction{from: lo, to: hi}
	pc.dirs[1] = direction{from: hi, to: lo}
	for i := range pc.dirs {
		pc.dirs[i].drained.L = &pc.dirs[i].waitMu
	}
	return pc
}

// side is the index, in dirs and ends, of node i's side of the pair: its
// end, and the direction written on it.
func (pc *pairConn) side(i int) int {
	if i == pc.dirs[0].from {
		return 0
	}
	return 1
}

// kill marks the connection dead and closes every end it has published,
// unblocking any writer mid-Write. Later calls only close the ends again,
// which is harmless.
func (pc *pairConn) kill() {
	if !pc.dead.Swap(true) {
		close(pc.killed)
	}
	for i := range pc.ends {
		if p := pc.ends[i].Load(); p != nil {
			_ = (*p).Close()
		}
	}
}

// register publishes an accepted connection as the peer's end, if it is
// the one this pair's dial opened: the dialer's local address is the
// acceptor's remote one. A connection that is not is refused.
func (pc *pairConn) register(conn net.Conn, dialer, peer int) bool {
	p := pc.ends[pc.side(dialer)].Load()
	if p == nil || (*p).LocalAddr().String() != conn.RemoteAddr().String() ||
		!pc.ends[pc.side(peer)].CompareAndSwap(nil, &conn) {
		return false
	}
	close(pc.registered)
	if pc.dead.Load() {
		_ = conn.Close() // a kill that ran before the end was published missed it
	}
	return true
}

// NewTCP opens the mesh's one loopback listener: every dial, whichever
// node it is to, connects there, and its hello names the pair. Call
// StartBatched to begin delivering, then SendBatch at will, then Close.
// Neither end of a connection turns TCP keepalive on: a loopback peer does
// not vanish unseen.
func NewTCP(n int) (*TCP, error) {
	l, err := (&net.ListenConfig{KeepAlive: -1}).Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	dialer := &net.Dialer{Timeout: dialTimeout, KeepAlive: -1}
	addr := l.Addr().String()
	return &TCP{
		n:        n,
		listener: l,
		pairs:    make([]atomic.Pointer[pairConn], n*(n-1)/2),
		accepted: make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
		dial:     func(int) (net.Conn, error) { return dialer.Dial("tcp", addr) },
	}, nil
}

// slot returns the table slot of the pair {i, j}, i ≠ j.
func (t *TCP) slot(i, j int) *atomic.Pointer[pairConn] {
	lo, hi := min(i, j), max(i, j)
	return &t.pairs[hi*(hi-1)/2+lo]
}

// StartBatched registers the delivery callback and begins accepting
// connections. The callback receives every frame of one (from, to)
// direction in order; consecutive frames already buffered on the connection
// arrive as one batch, so the receiver pays its per-delivery locking once
// per batch instead of once per message.
//
// Ownership handoff: the slice AND the messages' variable-length sections
// (Entries, DV, Payload) are views into the direction's one read buffer, in
// which every frame is decoded in place (decodeView); the reader moves,
// overwrites or replaces those bytes as soon as the callback returns.
// Implementations must fully consume a batch synchronously; anything that
// must outlive the callback has to be copied inside it.
func (t *TCP) StartBatched(deliver func([]Message)) error {
	if deliver == nil {
		return errors.New("transport: nil deliver callback")
	}
	t.deliver = deliver
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := t.listener.Accept()
			if err != nil {
				return // listener closed
			}
			t.accMu.Lock()
			t.accepted[conn] = struct{}{}
			t.accMu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.serve(conn)
				t.accMu.Lock()
				delete(t.accepted, conn)
				t.accMu.Unlock()
			}()
		}
	}()
	return nil
}

// frameError surfaces a poisoned link: a frame that cannot be decoded (or
// is absurdly oversized) kills the connection, and that must be loud — a
// counter plus a callback or log line — not a silent return that leaves a
// mystery hang.
func (t *TCP) frameError(from, to int, err error) {
	t.obs.BadFrames.Inc()
	if t.OnFrameError != nil {
		t.OnFrameError(from, to, err)
		return
	}
	log.Printf("transport: killing link %d->%d on bad frame: %v", from, to, err)
}

// SetObs attaches telemetry to the mesh: its counters resolve against the
// registry. Call before StartBatched; a nil registry leaves the mesh on the
// free (nil-handle) path.
func (t *TCP) SetObs(reg *obs.Registry) { t.obs = obs.TransportMetricsFrom(reg) }

// serve takes an accepted connection: the hello names the dialer and the
// peer, the connection is published as the peer's end of the pair's
// connection — atomic loads and a compare-and-swap, no lock a sender could
// hold — and the dialer → peer direction is read on it. A connection no
// pair claims is closed unread.
func (t *TCP) serve(conn net.Conn) {
	hello := make([]byte, helloSize)
	if _, err := io.ReadFull(conn, hello); err != nil {
		_ = conn.Close()
		return
	}
	dialer := int(int64(binary.LittleEndian.Uint64(hello[8:])))
	peer := int(int64(binary.LittleEndian.Uint64(hello[16:])))
	if int64(binary.LittleEndian.Uint64(hello)) != helloMagic ||
		dialer < 0 || dialer >= t.n || peer < 0 || peer >= t.n || dialer == peer {
		t.frameError(-1, -1, errors.New("transport: bad connection hello"))
		_ = conn.Close()
		return
	}
	if pc := t.slot(dialer, peer).Load(); pc != nil && pc.register(conn, dialer, peer) {
		t.readLoop(conn, pc, &pc.dirs[pc.side(dialer)])
		return
	}
	_ = conn.Close()
}

// The inbound buffer of one direction: it starts at minReadBuf, doubles
// after a read that filled all of its free space (a burst) up to
// maxReadBuf, and grows to fit one frame of up to maxFrame bytes. It never
// shrinks.
const (
	minReadBuf = 4 << 10
	maxReadBuf = 64 << 10
	maxFrame   = 1 << 20
)

// MaxPayload is the largest application payload a frame carries beside the
// largest piggyback of an n-process cluster — a sparse one naming all n
// entries — within the 1 MiB frame cap. A frame past the cap is a bad frame
// to its reader, which kills the connection.
func MaxPayload(n int) int { return maxFrame - 8*(11+2*n) }

// readLoop drains direction d of pc from conn, the end at d.to:
// length-prefixed frames. The direction owns one byte buffer; each read
// appends to it, and every complete frame it holds is decoded in place
// (decodeView) into one batch, so a burst reaches the deliver callback as
// one call. The buffer is touched again only after the callback returns:
// the partial tail then moves to the front, or the buffer grows. A frame
// whose endpoints are not the direction's is a bad frame, like one that
// does not decode: the receiver routes a batch by its first frame and
// charges each frame to its sender's order. On exit — a bad frame, a
// failed write that killed the socket, mesh close — the connection dies
// and d is reaped: sender-side accounting reconciles the frames this
// reader will never deliver.
func (t *TCP) readLoop(conn net.Conn, pc *pairConn, d *direction) {
	defer func() {
		t.reap(pc, d) // kills the connection before either end closes
		_ = conn.Close()
	}()
	// A heap block of minReadBuf bytes is word-aligned, and so is every
	// frame in it when the sender pads frames to whole words (appendFrame):
	// every view is then zero-copy.
	s := &inbound{t: t, pc: pc, d: d, buf: make([]byte, minReadBuf)}
	var err error
	if rc := rawConn(conn); rc != nil {
		err = s.pumpPoller(rc)
	} else {
		err = s.pumpBlocking(conn)
	}
	if s.stopped || err == nil {
		return // a bad frame (reported), the mesh closed, or a kill
	}
	if s.w > s.r && err == io.EOF {
		err = fmt.Errorf("transport: torn frame: %w", io.ErrUnexpectedEOF)
	}
	// A kill closes both ends, so the read may fail with a reset or a torn
	// tail the kill itself caused: that is a dead link, not a poisoned one.
	// The kill marks the connection dead first.
	if err != io.EOF && !errors.Is(err, net.ErrClosed) && !pc.dead.Load() {
		t.frameError(d.from, d.to, err)
	}
}

// rawConn returns conn's descriptor access, or nil for a connection that
// has none (a test's in-memory stream).
func rawConn(conn net.Conn) syscall.RawConn {
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			return rc
		}
	}
	return nil
}

// pumpPoller feeds the reader from a socket at one read(2) per arrival. The
// whole loop runs inside the poller's read callback: a read that returned
// less than the buffer's free space drained the socket — Linux TCP returns
// short only with its receive queue empty, and a segment that raced the
// read into the socket's backlog is queued and signalled as the read
// releases the socket — so once its frame is delivered the reader parks on
// the poller (the callback returns false) instead of reading again only to
// get EAGAIN, and the next arrival is a new readiness edge. nginx's
// ngx_unix_recv clears ready on the same rule under EPOLLET.
//
// That holds for a read that brought at most one frame: a stream at batch
// size one. A short read that brought several shows frames arriving faster
// than one delivery, so more may have come while they were delivered, and
// the reader reads again, parking only on EAGAIN. A parked reader waits for
// the scheduler to poll the network, which a busy GOMAXPROCS=1 process does
// only every 10 ms, so parking a busy stream with data waiting starves it.
// A read that filled the space reads again at once; EINTR retries; nothing
// is read once the connection is dead.
//
// The callback stays inside one RawConn.Read for the connection's life,
// because each new Read forgets a readiness edge that arrived before it.
// Delivering inside the callback holds the descriptor's read lock, so
// closing this end waits for a delivery in progress: no caller of kill
// holds anything a delivery waits on.
func (s *inbound) pumpPoller(rc syscall.RawConn) error {
	var rerr error
	err := rc.Read(func(fd uintptr) bool {
		for !s.pc.dead.Load() {
			space := len(s.buf) - s.w
			n, err := syscall.Read(int(fd), s.buf[s.w:])
			s.t.obs.Reads.Inc()
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EAGAIN:
				return false
			case err != nil:
				rerr = err
				return true
			case n == 0:
				rerr = io.EOF
				return true
			}
			frames, ok := s.took(n)
			if !ok {
				return true
			}
			if n < space && frames <= 1 {
				return false
			}
		}
		return true
	})
	if rerr != nil {
		return rerr
	}
	return err
}

// pumpBlocking feeds the reader from a connection without descriptor
// access, one blocking Read at a time, through the same body.
func (s *inbound) pumpBlocking(conn net.Conn) error {
	for !s.pc.dead.Load() {
		n, err := conn.Read(s.buf[s.w:])
		s.t.obs.Reads.Inc()
		if _, ok := s.took(n); !ok || err != nil {
			return err
		}
	}
	return nil
}

// inbound is one direction's receive state, owned by its reader: the byte
// buffer reads land in, buf[r:w] the bytes read and not yet decoded, and
// the batch every complete frame is decoded into — the callback gets the
// first k slots, views into buf.
type inbound struct {
	t     *TCP
	pc    *pairConn
	d     *direction
	buf   []byte
	r, w  int
	batch []Message
	// stopped is set when the reader must stop reading: a bad frame, which
	// took reported, or the mesh closed.
	stopped bool
}

// took is the reader's one body, run after n bytes landed at buf[w:]: it
// delivers every complete frame, in batches of at most maxInboundBatch,
// then moves the partial tail to the front and grows the buffer to fit the
// frame the tail starts — or doubles it, up to maxReadBuf, after a read
// that filled it (a burst) — so the next read has room. It returns how many
// frames it delivered, and ok false once the reader must stop.
func (s *inbound) took(n int) (frames int, ok bool) {
	t, from, to := s.t, s.d.from, s.d.to
	burst := s.w+n == len(s.buf)
	s.w += n
	for {
		k, in := 0, 0
		for k < maxInboundBatch && s.w-s.r >= 8 {
			size := int64(binary.LittleEndian.Uint64(s.buf[s.r:]))
			if size <= 0 || size > maxFrame {
				return frames, s.refuse(k, fmt.Errorf("transport: frame size %d outside (0, 1MiB]", size))
			}
			end := s.r + 8 + int(size)
			if end > s.w {
				break
			}
			if k == len(s.batch) {
				s.batch = append(s.batch, Message{})
			}
			m := &s.batch[k]
			if err := decodeView(s.buf[s.r+8:end], m); err != nil {
				return frames, s.refuse(k, err)
			}
			if m.From != from || m.To != to {
				return frames, s.refuse(k, fmt.Errorf("transport: a %d→%d frame on the %d→%d stream", m.From, m.To, from, to))
			}
			k, in, s.r = k+1, in+end-s.r, end
		}
		if k == 0 {
			break
		}
		t.obs.BytesIn.Add(uint64(in))
		select {
		case <-t.closed:
			s.stopped = true
			return frames, false
		default:
		}
		t.deliverBatch(s.d, s.batch[:k])
		frames += k
	}
	s.w, s.r = copy(s.buf, s.buf[s.r:s.w]), 0
	need := 8
	if s.w >= 8 {
		need += int(binary.LittleEndian.Uint64(s.buf)) // checked above
	}
	if burst {
		need = max(need, min(2*len(s.buf), maxReadBuf))
	}
	if need > len(s.buf) {
		grown := make([]byte, need)
		copy(grown, s.buf[:s.w])
		s.buf = grown
		// Stale views must not keep the old buffer alive.
		clear(s.batch)
	}
	return frames, true
}

// refuse ends the stream at a bad frame: the k good frames decoded before it
// are delivered, the frame is reported, and the reader stops.
func (s *inbound) refuse(k int, err error) bool {
	s.t.deliverBatch(s.d, s.batch[:k])
	s.t.frameError(s.d.from, s.d.to, err)
	s.stopped = true
	return false
}

// deliverBatch hands a batch of direction d to the deliver callback and,
// once it returns, counts it delivered and wakes a Drain waiting on d.
func (t *TCP) deliverBatch(d *direction, batch []Message) {
	if len(batch) == 0 {
		return
	}
	t.deliver(batch)
	d.delivered.Add(int64(len(batch)))
	t.obs.FramesDeliv.Add(uint64(len(batch)))
	if d.waiters.Load() != 0 {
		d.waitMu.Lock()
		d.drained.Broadcast()
		d.waitMu.Unlock()
	}
}

// conn returns the pair's connection and the (from, to) direction of it,
// with the direction's lock held, opening the direction on its first send.
// Nothing here takes the mesh-wide lock but the fill of a slot, so a slow
// or hung dial to one peer stalls only the senders of that pair. A dead
// connection is refused at once (ErrLinkDown).
func (t *TCP) conn(from, to int) (*pairConn, *direction, error) {
	slot := t.slot(from, to)
	pc := slot.Load()
	for pc == nil {
		t.mu.Lock()
		select {
		case <-t.closed:
			t.mu.Unlock()
			return nil, nil, ErrLinkDown
		default:
		}
		if pc = slot.Load(); pc == nil {
			pc = newPairConn(min(from, to), max(from, to))
			slot.Store(pc)
		}
		t.mu.Unlock()
	}
	d := &pc.dirs[pc.side(from)]
	d.mu.Lock()
	if pc.dead.Load() {
		d.mu.Unlock()
		return nil, nil, ErrLinkDown
	}
	if d.c == nil {
		if err := t.open(slot, pc, d); err != nil {
			d.mu.Unlock()
			return nil, nil, err
		}
	}
	return pc, d, nil
}

// open makes direction d of pc writable, with d's lock held. The first
// sender in either direction dials, naming (dialer, peer) in the hello, and
// the acceptor's reader will read its direction; a first sender the other
// way waits for the acceptor to publish its end — bounded by dialTimeout,
// and released by the connection's death, which Close brings — and starts
// its direction's reader on the dialer's end. A pair only ever used one way
// therefore has one reader. A failed dial takes pc out of its slot; any
// other failure kills it.
func (t *TCP) open(slot *atomic.Pointer[pairConn], pc *pairConn, d *direction) error {
	pc.dialMu.Lock()
	if pc.dialer < 0 && !pc.dead.Load() {
		if err := t.dialPair(pc, d.from, d.to); err != nil {
			// Dead for any sender already queued on the pair, but the pair
			// is not: it carried nothing, and its next send dials afresh.
			slot.CompareAndSwap(pc, nil)
			pc.dialMu.Unlock()
			return err
		}
	}
	dialer := pc.dialer
	pc.dialMu.Unlock()
	if dialer < 0 {
		return ErrLinkDown // a failed dial killed it while we queued
	}
	if dialer != d.from {
		timer := time.NewTimer(dialTimeout)
		defer timer.Stop()
		select {
		case <-pc.registered:
		case <-pc.killed:
			return ErrLinkDown
		case <-timer.C:
			pc.kill()
			return fmt.Errorf("transport: node %d never accepted the connection from node %d", d.from, d.to)
		}
		t.mu.Lock()
		select {
		case <-t.closed:
			t.mu.Unlock()
			return ErrLinkDown
		default:
		}
		t.wg.Add(1)
		t.mu.Unlock()
		end := *pc.ends[pc.side(d.to)].Load()
		go func() {
			defer t.wg.Done()
			t.readLoop(end, pc, d)
		}()
	}
	d.c = *pc.ends[pc.side(d.from)].Load()
	return nil
}

// dialPair opens pc's socket from node from to node to, with pc.dialMu and
// the (from, to) direction's lock held. The dialer's end is published
// before the hello goes out, so the acceptor, which reads the hello first,
// finds it.
func (t *TCP) dialPair(pc *pairConn, from, to int) error {
	t.obs.Dials.Inc()
	conn, err := t.dial(to)
	if err == nil {
		pc.ends[pc.side(from)].Store(&conn)
		var hello [helloSize]byte
		binary.LittleEndian.PutUint64(hello[:], uint64(helloMagic))
		binary.LittleEndian.PutUint64(hello[8:], uint64(from))
		binary.LittleEndian.PutUint64(hello[16:], uint64(to))
		_, err = conn.Write(hello[:])
	}
	if err != nil {
		t.obs.DialFailures.Inc()
		pc.kill()
		return fmt.Errorf("transport: dial node %d: %w", to, err)
	}
	if pc.dead.Load() {
		// Close raced the dial: it killed the connection while the socket
		// did not exist yet, so closing it falls to us.
		_ = conn.Close()
		return ErrLinkDown
	}
	pc.dialer = from
	return nil
}

// SendBatch transmits a run of messages from one sender to one receiver as
// a single buffered write, dialing the pair on first use: every frame is
// encoded, length prefix included, into the direction's reused buffer, and
// the whole batch costs one syscall. It returns how many leading messages
// were accepted onto the connection; on error the remainder are refused and
// the connection is dead, both ways. Accepted messages are delivered in
// order by the direction's reader (or reconciled through OnLinkDown if the
// connection dies first). Nothing reads msgs after SendBatch returns.
func (t *TCP) SendBatch(from, to int, msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	if from == to {
		return 0, fmt.Errorf("transport: node %d cannot send to itself", from) // a pair needs two ends
	}
	pc, d, err := t.conn(from, to)
	if err != nil {
		return 0, err
	}
	defer d.mu.Unlock()
	buf, ends := d.buf[:0], d.ends[:0]
	for i := range msgs {
		buf = appendFrame(buf, &msgs[i])
		ends = append(ends, len(buf))
	}
	d.buf, d.ends = buf, ends
	nw, werr := d.c.Write(buf)
	if werr != nil {
		// Frames entirely inside the written prefix may still be
		// delivered, so they count as sent (the reaper reconciles them);
		// a torn trailing frame poisons the stream, so the link dies here.
		accepted := 0
		for _, end := range ends {
			if end <= nw {
				accepted++
			}
		}
		d.sent += int64(accepted)
		pc.kill()
		t.obs.FramesSent.Add(uint64(accepted))
		t.obs.BytesOut.Add(uint64(nw))
		return accepted, fmt.Errorf("transport: send to node %d: %w", to, werr)
	}
	d.sent += int64(len(msgs))
	t.obs.Batches.Inc()
	t.obs.FramesPerBatch.Observe(int64(len(msgs)))
	t.obs.FramesSent.Add(uint64(len(msgs)))
	t.obs.BytesOut.Add(uint64(len(buf)))
	return len(msgs), nil
}

// Drain returns once every frame SendBatch accepted from → to before the
// call has been handed to the deliver callback and the callback has
// returned — or once the pair's connection is dead and the direction's
// losses are reported through OnLinkDown. It waits for the receiver, not
// for a timer: what a live connection carries arrives, and a mesh Close
// reaps everything, so the wait always ends once StartBatched has run.
func (t *TCP) Drain(from, to int) {
	pc := t.slot(from, to).Load()
	if pc == nil {
		return
	}
	d := &pc.dirs[pc.side(from)]
	d.mu.Lock()
	sent := d.sent
	d.mu.Unlock()
	// Registered before the check: a reader that loaded waiters as zero
	// counted its delivery before, and the check below sees it.
	d.waiters.Add(1)
	d.waitMu.Lock()
	for d.delivered.Load() < sent && !d.reaped {
		d.drained.Wait()
	}
	d.waitMu.Unlock()
	d.waiters.Add(-1)
}

// reap kills the connection and reports direction d's unaccounted frames —
// written but never handed to the deliver callback — through OnLinkDown,
// exactly once, then wakes any Drain of d. The sent counter is read under
// the direction's lock after the kill, so a write racing the teardown is
// either refused (dead was seen) or counted here (the write finished
// first). A direction's reaps never overlap: its reader reaps as it exits,
// and Close only after every reader has.
func (t *TCP) reap(pc *pairConn, d *direction) {
	// Kill the socket before queueing on the direction's lock: a writer
	// blocked on a full socket holds the lock until the close errors it
	// out, and waiting for it with the socket still open would deadlock.
	pc.kill()
	d.mu.Lock()
	sent := d.sent
	d.mu.Unlock()
	if d.reaped { // only reap writes it, and a direction's reaps never overlap
		return
	}
	if lost := sent - d.delivered.Load(); lost > 0 {
		t.obs.FramesLost.Add(uint64(lost))
		if t.OnLinkDown != nil {
			t.OnLinkDown(d.from, d.to, int(lost))
		}
	}
	d.waitMu.Lock()
	d.reaped = true
	d.drained.Broadcast()
	d.waitMu.Unlock()
}

// Close shuts down the listener and the connections, waits for reader
// goroutines to exit, and reconciles every direction's accounting. Safe for
// concurrent use: every caller returns only after the teardown has
// completed, and no delivery callback runs after the first Close returns.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.mu.Lock()
		close(t.closed)
		var pcs []*pairConn
		for i := range t.pairs {
			if pc := t.pairs[i].Load(); pc != nil {
				pcs = append(pcs, pc)
			}
		}
		t.mu.Unlock()
		_ = t.listener.Close()
		for _, pc := range pcs {
			pc.kill()
		}
		t.accMu.Lock()
		for c := range t.accepted {
			_ = c.Close()
		}
		t.accMu.Unlock()
		t.wg.Wait()
		// Readers are gone and delivered counters are final: any frame
		// still unaccounted — including ones written into a connection no
		// reader ever took — is lost now.
		for _, pc := range pcs {
			for i := range pc.dirs {
				t.reap(pc, &pc.dirs[i])
			}
		}
	})
	return nil
}
