// Package transport is the socket wire of a live cluster: a TCP mesh that
// sends every application message — dependency vector piggyback included —
// through real loopback sockets with length-prefixed binary framing, so the
// live-cluster experiments exercise a genuine network path: encoding, kernel
// buffering, per-connection ordering and cross-connection reordering. Like
// the paper's channels, one connection joins each pair of processes and
// carries both directions, so one direction's ACKs ride the other's data. It
// carries frames, kills a connection when told to (Sever) and accounts, per
// direction, for what a dead connection lost (OnLinkDown); which pairs may
// talk, when to try again and what to resend are decided once, for every
// wire, by the link layer of internal/runtime — whose other wire is an
// in-process hand-off.
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
	Seq     uint64       // per-(From,To) wire sequence (retransmit dedup)
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

// ErrLinkDown is returned by SendBatch while a pair's connection is
// unavailable: a previous incarnation died (a write error, a bad frame, or
// Sever) and its accounting has not been reaped yet, or the mesh is closed.
// The refusal is immediate, and so is a failed dial's error — the mesh paces
// nothing: callers that want reliability retry on their own schedule (the
// runtime's link layer does); callers that treat it as loss lose the frame,
// which the model permits.
var ErrLinkDown = errors.New("transport: link is down")

// writeTimeout bounds each batch write. A peer that accepts the connection
// but stops reading eventually fills the socket; the deadline errors the
// write out and the link dies — the reliability layer above redials and
// retransmits, so a hung peer costs a reconnect, not a wedged sender. The
// deadline is moved only when less than writeTimeout/2 of it remains, not
// on every write (a deadline change costs a runtime timer update), so a
// write that blocks dies within writeTimeout and never sooner than
// writeTimeout/2.
const writeTimeout = 5 * time.Second

// dialTimeout bounds each connection attempt, and a first send against the
// dial's direction waiting for the far end to be accepted: a hung listener
// costs one sender a bounded stall, never an unbounded one.
const dialTimeout = 3 * time.Second

// helloMagic opens every connection: the dialer announces itself and the
// peer it dialed, so the acceptor can find the incarnation the connection
// belongs to and publish its end there.
const helloMagic = int64(0x52445448454C4C4F) // "RDTHELLO"

// helloSize is the connection hello: magic, dialer, peer.
const helloSize = 24

// maxInboundBatch bounds how many decoded frames one delivery callback
// receives: enough to amortize the receiver's per-batch locking, small
// enough to keep a single callback from monopolizing the node.
const maxInboundBatch = 64

// TCP is a full mesh of loopback TCP connections between n nodes: one
// connection per unordered pair {i, j}, dialed by the first sender in either
// direction and carrying both — the end at i writes i→j and reads j→i, and
// the end at j the reverse. Sends are safe for concurrent use; received
// messages are handed to the deliver callback registered with StartBatched,
// one goroutine per direction in use.
//
// The mesh accounts every frame: a frame accepted by SendBatch is
// either handed to the deliver callback exactly once, or counted as lost —
// at the connection's death or at Close — through the OnLinkDown callback.
// Engines that track in-flight messages (runtime.Cluster.Quiesce) reconcile
// against it, so a torn-down link cannot strand their accounting.
type TCP struct {
	n         int
	listeners []net.Listener

	// pairs[slot(i, j)] is the pair's current incarnation, live or dead, or
	// nil: a send on a live pair loads its slot and takes only its
	// direction's lock. mu serializes what fills a slot, and what starts a
	// reader, against Close, which closes closed and snapshots the table
	// under it; a dead incarnation is replaced by the pair's next send once
	// the sender's direction of it is reaped (replace).
	mu    sync.Mutex
	pairs []atomic.Pointer[pairConn]

	accMu    sync.Mutex
	accepted map[net.Conn]struct{} // live accepted conns, closed by Close

	deliver   func([]Message)
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	// delivered[from*n+to] counts frames handed to the deliver callback,
	// the receiver-side half of the per-direction accounting (sender side is
	// direction.sent).
	delivered []atomic.Int64

	// badFrames is mesh-owned (it predates the registry and its accessor
	// is public API); SetObs adopts the same cell into a registry so
	// snapshots and BadFrames() can never disagree.
	badFrames obs.Counter

	obs obs.TransportMetrics // zero (free) unless SetObs attached a registry

	dial func(addr string) (net.Conn, error) // test hook; a keepalive-free dialer by default

	// OnFrameError, if set before StartBatched, is called when a connection is
	// severed by an undecodable or oversized frame — a poisoned link. When
	// nil the event is logged; either way BadFrames counts it, so a
	// poisoned link is loudly diagnosable instead of a mystery hang.
	OnFrameError func(from, to int, err error)

	// OnLinkDown, if set before StartBatched, reports frames that were
	// accepted by SendBatch but will never reach the deliver callback because
	// their connection died (reader torn down, or frames still undelivered
	// at Close). It fires at most once per direction of an incarnation,
	// after that direction's reader has exited, and never concurrently with
	// a delivery of the same direction.
	OnLinkDown func(from, to int, lost int)
}

// pairConn is one incarnation of the connection between a pair {lo, hi}:
// one socket, and one direction for each way across it. The directions
// share the socket's life — a write error, a bad frame or Sever kills it
// for both — and nothing else: each has its own write lock, accounting and
// reap, so a writer blocked one way never holds up the other.
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

	// prev is the dead incarnation this one replaced, while a direction of
	// it is still being reaped: each direction of this one opens only once
	// prev's same direction is reaped, and WaitReap and Close reach prev
	// through it. It is set before the slot publishes this incarnation, and
	// cleared once prev is wholly reaped.
	prev atomic.Pointer[pairConn]

	// dead is deliberately outside every lock: a writer blocked on a full
	// socket holds its direction's lock for the whole Write, and the only
	// thing that unblocks it is closing the socket — so Sever, reap and
	// Close must be able to kill the incarnation without queueing behind it.
	dead atomic.Bool
}

// direction is one way across an incarnation, from → to: frames are
// written on the end at from and read on the end at to.
type direction struct {
	from, to int

	mu     sync.Mutex
	c      net.Conn // the end written on; nil until the direction's first send opens it (guarded by mu)
	buf    []byte   // reused frame buffer (guarded by mu)
	ends   []int    // reused per-frame end offsets of buf (guarded by mu)
	sent   int64    // frames fully written
	reaped bool     // lost-frame reconciliation has run (at most once)

	// reading is set, under mu, once a reader is running or bound to come
	// for this direction: for the dial's direction, the acceptor's; for the
	// other, the one its first send starts on the dialer's end. A direction
	// without one has sent nothing, and is reaped by whoever finds the
	// incarnation dead (reapIdle).
	reading bool

	// deadline is the write deadline set on c (guarded by mu); SendBatch
	// moves it only when less than writeTimeout/2 of it remains.
	deadline time.Time

	// delivBase is the direction's cumulative delivered count when it
	// opened: t.delivered is cumulative across incarnations while sent is
	// per incarnation, so the reap subtracts the baseline. Written once
	// under mu before the first send; read by reap.
	delivBase int64

	// reapDone closes when the direction's lost-frame reconciliation has
	// completed (OnLinkDown included). The same direction of the next
	// incarnation opens only after it: opening earlier could deliver new
	// frames before the old tail is accounted, reordering the direction.
	reapDone chan struct{}
}

func newPairConn(lo, hi int) *pairConn {
	pc := &pairConn{dialer: -1, registered: make(chan struct{}), killed: make(chan struct{})}
	pc.dirs[0] = direction{from: lo, to: hi, reapDone: make(chan struct{})}
	pc.dirs[1] = direction{from: hi, to: lo, reapDone: make(chan struct{})}
	return pc
}

// reaped reports whether direction s of the incarnation is reaped.
func (pc *pairConn) reaped(s int) bool {
	select {
	case <-pc.dirs[s].reapDone:
		return true
	default:
		return false
	}
}

// side is the index, in dirs and ends, of node i's side of the pair: its
// end, and the direction written on it.
func (pc *pairConn) side(i int) int {
	if i == pc.dirs[0].from {
		return 0
	}
	return 1
}

// kill marks the incarnation dead and closes every end it has published,
// unblocking any writer mid-Write. It reports whether this call killed it;
// later calls only close the ends again, which is harmless.
func (pc *pairConn) kill() bool {
	first := !pc.dead.Swap(true)
	if first {
		close(pc.killed)
	}
	for i := range pc.ends {
		if p := pc.ends[i].Load(); p != nil {
			_ = (*p).Close()
		}
	}
	return first
}

// register publishes an accepted connection as the peer's end, if it is
// the one this incarnation's dial opened: the dialer's local address is the
// acceptor's remote one. A connection that is not — its dial failed after
// the connect, and the incarnation moved on — is refused.
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

// NewTCP opens one loopback listener per node. Call StartBatched to begin
// delivering, then SendBatch at will, then Close. Neither end of a
// connection turns TCP keepalive on: a loopback peer does not vanish
// unseen, and every write already carries writeTimeout.
func NewTCP(n int) (*TCP, error) {
	dialer := &net.Dialer{Timeout: dialTimeout, KeepAlive: -1}
	t := &TCP{
		n:         n,
		pairs:     make([]atomic.Pointer[pairConn], n*(n-1)/2),
		accepted:  make(map[net.Conn]struct{}),
		closed:    make(chan struct{}),
		delivered: make([]atomic.Int64, n*n),
		dial:      func(addr string) (net.Conn, error) { return dialer.Dial("tcp", addr) },
	}
	lc := net.ListenConfig{KeepAlive: -1}
	for i := 0; i < n; i++ {
		l, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close()
			return nil, fmt.Errorf("transport: listen for node %d: %w", i, err)
		}
		t.listeners = append(t.listeners, l)
	}
	return t, nil
}

// Addr returns node i's listening address.
func (t *TCP) Addr(i int) string { return t.listeners[i].Addr().String() }

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
	for i := range t.listeners {
		l := t.listeners[i]
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				conn, err := l.Accept()
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
	}
	return nil
}

// frameError surfaces a poisoned link: a frame that cannot be decoded (or
// is absurdly oversized) severs the connection, and that must be loud —
// a counter plus a callback or log line — not a silent return that leaves
// a mystery hang.
func (t *TCP) frameError(from, to int, err error) {
	t.badFrames.Inc()
	if t.OnFrameError != nil {
		t.OnFrameError(from, to, err)
		return
	}
	log.Printf("transport: severing link %d->%d on bad frame: %v", from, to, err)
}

// BadFrames reports how many connections were severed by undecodable or
// oversized frames.
func (t *TCP) BadFrames() uint64 { return t.badFrames.Value() }

// SetObs attaches telemetry to the mesh: per-mesh counters resolve against
// the registry, and the mesh-owned bad-frame counter is adopted under
// obs.TransportBadFrames so snapshots read the same cell BadFrames()
// does. Call before StartBatched; a nil registry leaves the mesh on the free
// (nil-handle) path.
func (t *TCP) SetObs(reg *obs.Registry) {
	t.obs = obs.TransportMetricsFrom(reg)
	reg.RegisterCounter(obs.TransportBadFrames, &t.badFrames)
}

// serve takes an accepted connection: the hello names the dialer and the
// peer, the connection is published as the peer's end of the incarnation
// that dialed it — atomic loads and a compare-and-swap, no lock a sender
// could hold — and the dialer → peer direction is read on it. A connection
// no incarnation claims is closed unread.
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
	// The incarnation may have died and been replaced already; it is then
	// the new one's prev, kept until this reader has reaped it.
	for pc := t.slot(dialer, peer).Load(); pc != nil; pc = pc.prev.Load() {
		if pc.register(conn, dialer, peer) {
			t.readLoop(conn, pc, &pc.dirs[pc.side(dialer)])
			return
		}
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

// readLoop drains direction d of incarnation pc from conn, the end at d.to:
// length-prefixed frames. The direction owns one byte buffer; each read
// appends to it, and every complete frame it holds is decoded in place
// (decodeView) into one batch, so a burst reaches the deliver callback as
// one call. The buffer is touched again only after the callback returns:
// the partial tail then moves to the front, or the buffer grows. On exit —
// peer close, poisoned frame, mesh close — the incarnation dies and d is
// reaped: sender-side accounting reconciles the frames this reader will
// never deliver.
func (t *TCP) readLoop(conn net.Conn, pc *pairConn, d *direction) {
	defer func() {
		t.reap(pc, d) // kills the incarnation before either end closes
		_ = conn.Close()
	}()
	from, to := d.from, d.to
	// A heap block of minReadBuf bytes is word-aligned, and so is every
	// frame in it when the sender pads frames to whole words (appendFrame):
	// every view is then zero-copy.
	buf := make([]byte, minReadBuf)

	// buf[r:w] holds the bytes read and not yet decoded. Frames decode
	// straight into their batch slot (decodeFrame resets it first); the
	// callback gets the first k slots, views into buf.
	var batch []Message
	var err error
	r, w, burst := 0, 0, false
	for {
		k, in := 0, 0
		for k < maxInboundBatch && w-r >= 8 {
			size := int64(binary.LittleEndian.Uint64(buf[r:]))
			if size <= 0 || size > maxFrame {
				t.deliverBatch(from, to, batch[:k])
				t.frameError(from, to, fmt.Errorf("transport: frame size %d outside (0, 1MiB]", size))
				return
			}
			end := r + 8 + int(size)
			if end > w {
				break
			}
			if k == len(batch) {
				batch = append(batch, Message{})
			}
			if err := decodeView(buf[r+8:end], &batch[k]); err != nil {
				t.deliverBatch(from, to, batch[:k])
				t.frameError(from, to, err)
				return
			}
			k, in, r = k+1, in+end-r, end
		}
		if k > 0 {
			t.obs.BytesIn.Add(uint64(in))
			select {
			case <-t.closed:
				return
			default:
			}
			t.deliverBatch(from, to, batch[:k])
			continue
		}
		if err != nil {
			if w > r && err == io.EOF {
				err = fmt.Errorf("transport: torn frame: %w", io.ErrUnexpectedEOF)
			}
			// A kill closes both ends, so the read may fail with a reset or
			// a torn tail the kill itself caused: that is a dead link, not a
			// poisoned one. The kill marks the incarnation dead first.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !pc.dead.Load() {
				t.frameError(from, to, err)
			}
			return
		}
		// No complete frame is left: the callback has returned, so the
		// partial tail moves to the front, and the buffer grows to fit the
		// frame it starts, or doubles after a burst.
		w, r = copy(buf, buf[r:w]), 0
		need := 8
		if w >= 8 {
			need += int(binary.LittleEndian.Uint64(buf)) // checked above
		}
		if burst {
			need = max(need, min(2*len(buf), maxReadBuf))
		}
		if need > len(buf) {
			grown := make([]byte, need)
			copy(grown, buf[:w])
			buf = grown
			// Stale views must not keep the old buffer alive.
			clear(batch)
		}
		var n int
		n, err = conn.Read(buf[w:])
		burst = w+n == len(buf)
		w += n
	}
}

func (t *TCP) deliverBatch(from, to int, batch []Message) {
	if len(batch) == 0 {
		return
	}
	t.deliver(batch)
	t.delivered[from*t.n+to].Add(int64(len(batch)))
	t.obs.FramesDeliv.Add(uint64(len(batch)))
}

// conn returns the pair's current incarnation and the (from, to)
// direction of it, with the direction's lock held, opening the direction
// on its first send. Nothing here takes the mesh-wide lock but the fill of
// a slot, so a slow or hung dial to one peer stalls only the senders of
// that pair.
//
// A dead incarnation is not permanent: once the sender's direction of it
// has been reaped, the pair's next send replaces it — at the caller's next
// attempt, whenever that is. Every refusal of a dead pair is immediate —
// conn never blocks on a reap — so a caller holding higher-level locks (the
// runtime's per-pair link lock, whose OnLinkDown callback the reap itself
// runs) cannot deadlock against the teardown.
func (t *TCP) conn(from, to int) (*pairConn, *direction, error) {
	slot := t.slot(from, to)
	for {
		pc := slot.Load()
		if pc == nil || pc.dead.Load() {
			if err := t.replace(slot, pc, from, to); err != nil {
				return nil, nil, err
			}
			continue
		}

		d := &pc.dirs[pc.side(from)]
		d.mu.Lock()
		if pc.dead.Load() {
			d.mu.Unlock()
			continue // died while we queued; take the dead path above
		}
		if d.c == nil {
			if err := t.open(pc, d); err != nil {
				d.mu.Unlock()
				return nil, nil, err
			}
		}
		return pc, d, nil
	}
}

// replace puts a new incarnation of the pair {from, to} in its slot, in
// place of old: nil, or a dead incarnation. A dead one is replaced only once
// the sender's direction of it is reaped (its reader exited, its lost frames
// reported), and once the incarnation it replaced in turn is wholly reaped,
// so at most two incarnations of a pair are ever unreaped. If old's other
// direction is still being reaped, the new incarnation keeps it as prev,
// and that direction opens on the new one only after the reap. The
// refusal is immediate (ErrLinkDown): a sender never waits on a reap.
func (t *TCP) replace(slot *atomic.Pointer[pairConn], old *pairConn, from, to int) error {
	var prev *pairConn
	if old != nil {
		reapIdle(old)
		if p := old.prev.Load(); !old.reaped(old.side(from)) || p != nil && !(p.reaped(0) && p.reaped(1)) {
			return ErrLinkDown
		}
		old.prev.Store(nil)
		if !(old.reaped(0) && old.reaped(1)) {
			prev = old
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		return ErrLinkDown
	default:
	}
	if slot.Load() == old {
		pc := newPairConn(min(from, to), max(from, to))
		pc.prev.Store(prev)
		slot.Store(pc)
	}
	return nil
}

// open makes direction d of pc writable, with d's lock held. The first
// sender in either direction dials, naming (dialer, peer) in the hello, and
// the acceptor's reader will read its direction; a first sender the other
// way waits for the acceptor to publish its end — bounded by dialTimeout,
// and released by the incarnation's death, which Close brings — and starts
// its direction's reader on the dialer's end. A pair only ever used one way
// therefore has one reader. Either way, the direction opens only once the
// previous incarnation's same direction is reaped; until then it is
// refused. Any other failure kills the incarnation.
func (t *TCP) open(pc *pairConn, d *direction) error {
	if p := pc.prev.Load(); p != nil {
		if !p.reaped(pc.side(d.from)) {
			return ErrLinkDown
		}
		if p.reaped(0) && p.reaped(1) {
			pc.prev.CompareAndSwap(p, nil)
		}
	}
	pc.dialMu.Lock()
	if pc.dialer < 0 && !pc.dead.Load() {
		if err := t.dialPair(pc, d.from, d.to); err != nil {
			pc.dialMu.Unlock()
			return err
		}
	}
	dialer := pc.dialer
	pc.dialMu.Unlock()
	if dialer < 0 {
		return ErrLinkDown // a failed dial killed it while we queued
	}
	d.delivBase = t.delivered[d.from*t.n+d.to].Load()
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
	d.reading = true
	d.c = *pc.ends[pc.side(d.from)].Load()
	return nil
}

// dialPair opens pc's socket from node from to node to, with pc.dialMu and
// the (from, to) direction's lock held. The dialer's end is published
// before the hello goes out, so the acceptor, which reads the hello first,
// finds it.
func (t *TCP) dialPair(pc *pairConn, from, to int) error {
	t.obs.Dials.Inc()
	conn, err := t.dial(t.Addr(to))
	if err == nil {
		pc.ends[pc.side(from)].Store(&conn)
		var hello [helloSize]byte
		binary.LittleEndian.PutUint64(hello[:], uint64(helloMagic))
		binary.LittleEndian.PutUint64(hello[8:], uint64(from))
		binary.LittleEndian.PutUint64(hello[16:], uint64(to))
		_, err = conn.Write(hello[:])
	}
	if err != nil {
		// This attempt is dead for any sender already queued on the pair,
		// but the pair is not: once reaped, the next send dials afresh.
		t.obs.DialFailures.Inc()
		pc.kill()
		return fmt.Errorf("transport: dial node %d: %w", to, err)
	}
	if pc.dead.Load() {
		// A Sever raced the dial: it killed the incarnation while the socket
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
// were accepted onto the connection; on error the remainder are lost and
// the link is dead, both ways. Accepted messages are delivered in order by
// the direction's reader (or reconciled through OnLinkDown if the
// connection dies first).
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
	// A peer that stops reading eventually fills the socket; the deadline
	// turns the resulting indefinite block into a dead link the layers
	// above can heal, instead of a wedged sender holding the direction's lock.
	if now := time.Now(); d.deadline.Sub(now) < writeTimeout/2 {
		d.deadline = now.Add(writeTimeout)
		_ = d.c.SetWriteDeadline(d.deadline)
	}
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

// Sever kills the connection between from and to, if the pair has one,
// modeling a link failure — in both directions, since they share the
// socket: each direction's reader stops and reconciles what it did not
// deliver through OnLinkDown. It reports whether there was a connection
// (live, or mid-dial) to kill. Nothing keeps the pair from redialing once
// the sender's direction is reaped: a cut that lasts is the caller's to hold.
func (t *TCP) Sever(from, to int) bool {
	// Lock-free on purpose: the writer this is meant to interrupt may be
	// holding its direction's lock, blocked on the very socket being closed.
	// If the dial is still in flight, dialPair re-checks dead after the
	// connect and closes the socket on our behalf.
	pc := t.slot(from, to).Load()
	return pc != nil && pc.kill()
}

// WaitReap blocks until the pair's dead incarnations (if any) have been
// reaped in both directions: their readers have exited and every frame
// they lost has been reported through OnLinkDown. WaitReap(from, to) and
// WaitReap(to, from) wait for the same thing. A mesh Close reaps
// everything, so the wait always ends.
func (t *TCP) WaitReap(from, to int) {
	for pc := t.slot(from, to).Load(); pc != nil; pc = pc.prev.Load() {
		if pc.dead.Load() {
			reapIdle(pc)
			for i := range pc.dirs {
				<-pc.dirs[i].reapDone
			}
		}
	}
}

// reapIdle reaps the directions of a dead incarnation that no reader will
// reap: those never opened for reading, which have sent nothing and so
// report nothing. The reap is whole under the direction's lock, so two
// senders finding the incarnation dead at once both see it done.
func reapIdle(pc *pairConn) {
	for i := range pc.dirs {
		d := &pc.dirs[i]
		d.mu.Lock()
		if !d.reading && !d.reaped {
			d.reaped = true
			close(d.reapDone)
		}
		d.mu.Unlock()
	}
}

// reap kills the incarnation and reports direction d's unaccounted frames
// — written but never handed to the deliver callback — through OnLinkDown,
// exactly once. The sent counter is read under the direction's lock, so a
// write racing the teardown is either refused (dead was seen) or counted
// here (the write finished first). The delivered counter is cumulative
// across incarnations, so the direction's open-time baseline is subtracted.
// reapDone closes only after OnLinkDown has returned: the direction's next
// incarnation, gated on it, therefore starts with the old one's losses fully
// reported, which is what keeps the direction's wire sequence gap-free
// across a reconnect.
func (t *TCP) reap(pc *pairConn, d *direction) {
	// Kill the socket before queueing on the direction's lock: a writer
	// blocked on a full socket holds the lock until the close errors it
	// out, and waiting for it with the socket still open would deadlock.
	pc.kill()
	d.mu.Lock()
	if d.reaped {
		d.mu.Unlock()
		return
	}
	d.reaped = true
	sent := d.sent
	base := d.delivBase
	d.mu.Unlock()
	if lost := sent - (t.delivered[d.from*t.n+d.to].Load() - base); lost > 0 {
		t.obs.FramesLost.Add(uint64(lost))
		if t.OnLinkDown != nil {
			t.OnLinkDown(d.from, d.to, int(lost))
		}
	}
	close(d.reapDone)
}

// Close shuts down listeners and connections, waits for reader goroutines
// to exit, and reconciles every direction's accounting. Safe for concurrent
// use: every caller returns only after the teardown has completed, and no
// delivery callback runs after the first Close returns.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.mu.Lock()
		close(t.closed)
		var pcs []*pairConn
		for i := range t.pairs {
			for pc := t.pairs[i].Load(); pc != nil; pc = pc.prev.Load() {
				pcs = append(pcs, pc)
			}
		}
		t.mu.Unlock()
		for _, l := range t.listeners {
			if l != nil {
				_ = l.Close()
			}
		}
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
