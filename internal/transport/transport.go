// Package transport is the socket wire of a live cluster: a TCP mesh that
// sends every application message — dependency vector piggyback included —
// through real loopback sockets with length-prefixed binary framing, so the
// live-cluster experiments exercise a genuine network path: encoding, kernel
// buffering, per-connection ordering and cross-connection reordering. It
// carries frames, kills a stream when told to (Sever) and accounts for what
// a dead stream lost (OnLinkDown); which pairs may talk, when to try again
// and what to resend are decided once, for every wire, by the link layer of
// internal/runtime — whose other wire is an in-process hand-off.
package transport

import (
	"bufio"
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
	Msg     int          // global message number
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
func (m Message) Validate(n int) error {
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
func Encode(m Message) []byte { return appendEncode(nil, m) }

// Decode parses one wire frame. The returned message owns its memory (the
// variable-length sections are copied out of b).
func Decode(b []byte) (Message, error) { return decode(b) }

// encodedSize is the exact wire size of a message (excluding the frame
// length prefix). A sparse frame spends two words per changed entry
// instead of one per process — the wire cost is O(changed), not O(n).
func encodedSize(m Message) int {
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
func appendEncode(buf []byte, m Message) []byte {
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

// decode parses one frame payload, copying the entries, vector and payload
// out of b — the portable path, and the public Decode.
func decode(b []byte) (Message, error) { return decodeFrame(b, false) }

// decodeView parses one frame payload zero-copy where the platform allows:
// Entries, DV and Payload alias b, so the message is valid only as long as
// b's bytes are. The mesh read path uses it — frame buffers there outlive
// the delivery callback, which is the ownership handoff StartBatched
// documents. On targets without aliasing support it copies like decode.
func decodeView(b []byte) (Message, error) { return decodeFrame(b, aliasable(b)) }

// decodeFrame parses one frame payload; view selects aliasing (the caller
// has verified the platform and alignment) or copying for the
// variable-length sections.
func decodeFrame(b []byte, view bool) (Message, error) {
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
		return Message{}, errors.New("transport: bad frame magic")
	}
	var m Message
	for _, f := range [...]*int{&m.From, &m.To, &m.Msg} {
		v, ok := rd()
		if !ok {
			return Message{}, fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
		}
		*f = int(v)
	}
	ep, ok := rd()
	if !ok {
		return Message{}, fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
	}
	m.Epoch = uint64(ep)
	idx, ok := rd()
	if !ok {
		return Message{}, fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
	}
	m.Index = int(idx)
	ord, ok := rd()
	if !ok {
		return Message{}, fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
	}
	m.Ord = int(ord)
	seq, ok := rd()
	if !ok {
		return Message{}, fmt.Errorf("transport: short frame: %w", io.ErrUnexpectedEOF)
	}
	m.Seq = uint64(seq)
	kind, ok := rd()
	if !ok || (kind != 0 && kind != 1) {
		return Message{}, errors.New("transport: bad piggyback kind")
	}
	m.Sparse = kind == 1
	if m.Sparse {
		n, ok := rd()
		if !ok || n < 0 || n > int64(len(b)-off)/16 {
			// Sparse entries are 16 bytes each; a count beyond the bytes
			// present is a corrupted frame and must not drive the allocation.
			return Message{}, errors.New("transport: bad entry count")
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
			return Message{}, fmt.Errorf("transport: bad sparse entries: %w", err)
		}
	} else {
		n, ok := rd()
		if !ok || n < 0 || n > int64(len(b)-off)/8 {
			// Entries are 8 bytes each; a length beyond the bytes present is
			// a corrupted frame and must not drive the allocation.
			return Message{}, errors.New("transport: bad vector length")
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
		return Message{}, errors.New("transport: bad payload length")
	}
	if view {
		m.Payload = b[off : off+int(pl) : off+int(pl)]
	} else {
		m.Payload = make([]byte, pl)
		copy(m.Payload, b[off:off+int(pl)])
	}
	return m, nil
}

// ErrLinkDown is returned by Send and SendBatch while a pair's connection
// is unavailable: a previous stream died (a write error, or Sever) and its
// accounting has not been reaped yet, or the mesh is closed. The refusal is
// immediate, and so is a failed dial's error — the mesh paces nothing:
// callers that want reliability retry on their own schedule (the runtime's
// link layer does); callers that treat it as loss lose the frame, which the
// model permits.
var ErrLinkDown = errors.New("transport: link is down")

// Options tunes the mesh's failure behavior. The zero value selects the
// defaults below; NewTCP uses them.
type Options struct {
	// DialTimeout bounds each connection attempt (default 3s): a hung
	// listener costs one sender a bounded stall, never an unbounded one.
	DialTimeout time.Duration
	// WriteTimeout bounds each batch write (default 5s). A peer that
	// accepts the connection but stops reading eventually fills the socket;
	// the deadline errors the write out and the link dies — the reliability
	// layer above redials and retransmits, so a hung peer costs a
	// reconnect, not a wedged sender.
	WriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	return o
}

// helloMagic opens every connection: the dialer announces which (from, to)
// pair the stream carries, so the reader side can account delivered frames
// per pair and report the frames lost when a stream dies.
const helloMagic = int64(0x52445448454C4C4F) // "RDTHELLO"

// maxInboundBatch bounds how many decoded frames one delivery callback
// receives: enough to amortize the receiver's per-batch locking, small
// enough to keep a single callback from monopolizing the node.
const maxInboundBatch = 64

// TCP is a full mesh of loopback TCP connections between n nodes. Sends
// are safe for concurrent use; received messages are handed to the deliver
// callback registered with Start or StartBatched, one goroutine per peer
// connection.
//
// The mesh accounts every frame: a frame accepted by Send/SendBatch is
// either handed to the deliver callback exactly once, or counted as lost —
// at stream death or at Close — through the OnLinkDown callback. Engines
// that track in-flight messages (runtime.Cluster.Quiesce) reconcile
// against it, so a torn-down link cannot strand their accounting.
type TCP struct {
	n         int
	opts      Options
	listeners []net.Listener

	mu    sync.Mutex
	conns map[[2]int]*sendConn // (from, to) -> connection

	accMu    sync.Mutex
	accepted map[net.Conn]struct{} // live accepted conns, closed by Close

	deliver   func([]Message)
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	// delivered[from*n+to] counts frames handed to the deliver callback,
	// the receiver-side half of the per-pair accounting (sender side is
	// sendConn.sent).
	delivered []atomic.Int64

	// badFrames is mesh-owned (it predates the registry and its accessor
	// is public API); SetObs adopts the same cell into a registry so
	// snapshots and BadFrames() can never disagree.
	badFrames obs.Counter

	obs obs.TransportMetrics // zero (free) unless SetObs attached a registry

	dial func(addr string) (net.Conn, error) // test hook; net.Dial by default

	// OnFrameError, if set before Start, is called when a connection is
	// severed by an undecodable or oversized frame — a poisoned link. When
	// nil the event is logged; either way BadFrames counts it, so a
	// poisoned link is loudly diagnosable instead of a mystery hang.
	OnFrameError func(from, to int, err error)

	// OnLinkDown, if set before Start, reports frames that were accepted
	// by Send/SendBatch but will never reach the deliver callback because
	// their stream died (reader torn down, or frames still undelivered at
	// Close). It fires at most once per pair, after the pair's reader has
	// exited, and never concurrently with a delivery of that pair.
	OnLinkDown func(from, to int, lost int)
}

type sendConn struct {
	mu     sync.Mutex
	c      net.Conn // nil until the dial (under mu, not the mesh lock) succeeds
	buf    []byte   // reused frame buffer (guarded by mu)
	ends   []int    // reused per-frame end offsets of buf (guarded by mu)
	sent   int64    // frames fully written to the stream
	reaped bool     // lost-frame reconciliation has run (at most once)

	// delivBase is the pair's cumulative delivered count when this
	// incarnation dialed: t.delivered is cumulative across reconnects while
	// sent is per-stream, so the reap subtracts the baseline. Written once
	// under mu before the first send; read by reap.
	delivBase int64

	// reapDone closes when the lost-frame reconciliation for this
	// incarnation has completed (OnLinkDown included). A redial of the pair
	// is gated on it: dialing earlier could deliver new frames before the
	// old stream's tail is accounted, reordering the pair.
	reapDone chan struct{}

	// dead and live are deliberately outside mu: a writer blocked on a
	// full socket holds mu for the whole Write, and the only thing that
	// unblocks it is closing the socket — so Sever, reap and Close
	// must be able to mark the pair dead and close the conn without
	// queueing on mu behind that writer.
	dead atomic.Bool
	live atomic.Pointer[net.Conn] // set once, when the dial succeeds
}

// closeConn closes the pair's socket without taking the pair lock,
// unblocking any writer mid-Write; safe to call repeatedly.
func (sc *sendConn) closeConn() {
	if p := sc.live.Load(); p != nil {
		_ = (*p).Close()
	}
}

// NewTCP opens one loopback listener per node with default Options. Call
// Start to begin delivering, then Send at will, then Close.
func NewTCP(n int) (*TCP, error) { return NewTCPWith(n, Options{}) }

// NewTCPWith is NewTCP with explicit failure-behavior options.
func NewTCPWith(n int, opts Options) (*TCP, error) {
	opts = opts.withDefaults()
	t := &TCP{
		n:         n,
		opts:      opts,
		conns:     make(map[[2]int]*sendConn),
		accepted:  make(map[net.Conn]struct{}),
		closed:    make(chan struct{}),
		delivered: make([]atomic.Int64, n*n),
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, opts.DialTimeout)
		},
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
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

// Start registers a per-message delivery callback and begins accepting
// connections. Engines that want the receiver-side batching should use
// StartBatched instead.
func (t *TCP) Start(deliver func(Message)) error {
	if deliver == nil {
		return errors.New("transport: nil deliver callback")
	}
	return t.StartBatched(func(ms []Message) {
		for _, m := range ms {
			deliver(m)
		}
	})
}

// StartBatched registers the delivery callback and begins accepting
// connections. The callback receives every frame of one (from, to) stream
// in order; consecutive frames already buffered on the connection arrive
// as one batch, so the receiver pays its per-delivery locking once per
// batch instead of once per message.
//
// Ownership handoff: the slice AND the messages' variable-length sections
// (Entries, DV, Payload) are views into per-stream read buffers that are
// reused as soon as the callback returns — messages are decoded zero-copy
// (decodeView). Implementations must fully consume a batch synchronously;
// anything that must outlive the callback has to be copied inside it.
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
					t.readLoop(conn)
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
// does. Call before Start; a nil registry leaves the mesh on the free
// (nil-handle) path.
func (t *TCP) SetObs(reg *obs.Registry) {
	t.obs = obs.TransportMetricsFrom(reg)
	reg.RegisterCounter(obs.TransportBadFrames, &t.badFrames)
}

// readLoop drains one accepted stream: the hello identifying its (from,
// to) pair, then length-prefixed frames. Frames already buffered behind
// the one being read are decoded into the same batch, so a burst reaches
// the deliver callback as one call. On exit — peer close, poisoned frame,
// mesh close — the pair is reaped: sender-side accounting reconciles the
// frames this reader will never deliver.
func (t *TCP) readLoop(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	br := bufio.NewReaderSize(conn, 64<<10)

	var hello [24]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	from := int(int64(binary.LittleEndian.Uint64(hello[8:])))
	to := int(int64(binary.LittleEndian.Uint64(hello[16:])))
	if int64(binary.LittleEndian.Uint64(hello[:])) != helloMagic ||
		from < 0 || from >= t.n || to < 0 || to >= t.n {
		t.frameError(-1, -1, errors.New("transport: bad connection hello"))
		return
	}
	defer func() {
		if sc := t.current(from, to); sc != nil {
			t.reap(sc, from, to)
		}
	}()

	// One reusable frame buffer per batch slot: messages are decoded
	// zero-copy (decodeView aliases the buffer), so every frame of a batch
	// must stay resident until the delivery callback has consumed the
	// batch. Slot i is only overwritten when a later batch reads its i-th
	// frame — after the callback for this batch returned (the StartBatched
	// ownership handoff).
	frameBufs := make([][]byte, maxInboundBatch)
	batch := make([]Message, 0, maxInboundBatch)
	// hdr is the stream's one length-prefix buffer. It escapes through
	// io.ReadFull, so it lives out here: one allocation per stream, not one
	// per frame.
	var hdr [8]byte
	readFrame := func(slot int) (Message, error) {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return Message{}, err
		}
		size := int64(binary.LittleEndian.Uint64(hdr[:]))
		if size <= 0 || size > 1<<20 {
			return Message{}, fmt.Errorf("transport: frame size %d outside (0, 1MiB]", size)
		}
		buf := frameBufs[slot]
		if int64(cap(buf)) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		frameBufs[slot] = buf
		if _, err := io.ReadFull(br, buf); err != nil {
			return Message{}, err
		}
		t.obs.BytesIn.Add(uint64(8 + size))
		return decodeView(buf)
	}
	for {
		m, err := readFrame(0)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				t.frameError(from, to, err)
			}
			return
		}
		batch = append(batch[:0], m)
		// Coalesce: frames fully buffered behind this one join the batch,
		// so a burst costs the receiver one callback (one lock
		// acquisition in the engine) instead of one per frame.
		for len(batch) < maxInboundBatch && br.Buffered() >= 8 {
			hdr, _ := br.Peek(8)
			size := int64(binary.LittleEndian.Uint64(hdr))
			if size <= 0 || size > 1<<20 || int64(br.Buffered()) < 8+size {
				break
			}
			m, err = readFrame(len(batch))
			if err != nil {
				t.deliverBatch(from, to, batch)
				t.frameError(from, to, err)
				return
			}
			batch = append(batch, m)
		}
		select {
		case <-t.closed:
			return
		default:
		}
		t.deliverBatch(from, to, batch)
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

// conn returns the pair's connection with its lock held, dialing on first
// use. The dial happens under the per-pair lock only — never the mesh-wide
// one — so a slow or hung dial to one peer stalls only senders to that
// peer, not every sender on the mesh.
//
// A dead pair is not permanent: once the dead incarnation's accounting has
// been reaped, the placeholder is replaced and the pair redials — at the
// caller's next attempt, whenever that is. Every refusal is immediate — conn
// never blocks on a reap — so a caller holding higher-level locks (the
// runtime's per-pair link lock, whose OnLinkDown callback the reap itself
// runs) cannot deadlock against the teardown.
func (t *TCP) conn(from, to int) (*sendConn, error) {
	key := [2]int{from, to}
	for {
		t.mu.Lock()
		sc, ok := t.conns[key]
		if !ok {
			select {
			case <-t.closed:
				t.mu.Unlock()
				return nil, ErrLinkDown
			default:
			}
			sc = &sendConn{reapDone: make(chan struct{})}
			t.conns[key] = sc
		}
		t.mu.Unlock()

		if sc.dead.Load() {
			// A previous incarnation died. It may be redialed only after its
			// reap has run (reader exited, lost frames reported): dialing
			// earlier could land new frames at the receiver before the old
			// stream's tail is accounted, reordering the pair.
			t.reapUndialed(sc, from, to)
			select {
			case <-sc.reapDone:
			default:
				return nil, ErrLinkDown
			}
			t.forget(key, sc)
			continue
		}

		sc.mu.Lock()
		if sc.dead.Load() {
			sc.mu.Unlock()
			continue // died while we queued; take the dead path above
		}
		if sc.c == nil {
			t.obs.Dials.Inc()
			conn, err := t.dial(t.Addr(to))
			if err == nil {
				var hello [24]byte
				binary.LittleEndian.PutUint64(hello[:], uint64(helloMagic))
				binary.LittleEndian.PutUint64(hello[8:], uint64(from))
				binary.LittleEndian.PutUint64(hello[16:], uint64(to))
				if _, werr := conn.Write(hello[:]); werr != nil {
					_ = conn.Close()
					err = werr
				}
			}
			if err != nil {
				// This attempt is dead for any sender already queued on
				// sc.mu, but the pair is not: dropping the placeholder lets
				// the next Send dial afresh.
				t.obs.DialFailures.Inc()
				sc.dead.Store(true)
				sc.mu.Unlock()
				t.reap(sc, from, to) // nothing was sent; closes reapDone
				t.forget(key, sc)
				return nil, fmt.Errorf("transport: dial node %d: %w", to, err)
			}
			sc.c = conn
			sc.delivBase = t.delivered[from*t.n+to].Load()
			sc.live.Store(&conn)
			if sc.dead.Load() {
				// A Sever raced the dial: it marked the pair dead while
				// the socket did not exist yet, so closing it falls to us.
				// The reader may or may not have registered; reaping here is
				// safe (nothing was sent) and idempotent against its reap.
				_ = conn.Close()
				sc.mu.Unlock()
				t.reap(sc, from, to)
				return nil, ErrLinkDown
			}
		}
		return sc, nil
	}
}

// forget drops a dead, reaped incarnation so that the pair's next send makes
// a new one.
func (t *TCP) forget(key [2]int, sc *sendConn) {
	t.mu.Lock()
	if t.conns[key] == sc {
		delete(t.conns, key)
	}
	t.mu.Unlock()
}

// current returns the pair's incarnation, live or dead, or nil.
func (t *TCP) current(from, to int) *sendConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[[2]int{from, to}]
}

// Send transmits a message to m.To over the mesh, dialing the peer's
// listener on first use and framing the payload with a length prefix.
func (t *TCP) Send(m Message) error {
	_, err := t.SendBatch(m.From, m.To, []Message{m})
	return err
}

// SendBatch transmits a run of messages from one sender to one receiver as
// a single buffered write: every frame is encoded, length prefix included,
// into the connection's reused buffer, and the whole batch costs one
// syscall. It returns how many leading messages were accepted onto the
// stream; on error the remainder are lost and the link is dead. Accepted
// messages are delivered in order by the receiving readLoop (or reconciled
// through OnLinkDown if the stream dies first).
func (t *TCP) SendBatch(from, to int, msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	sc, err := t.conn(from, to)
	if err != nil {
		return 0, err
	}
	defer sc.mu.Unlock()
	buf, ends := sc.buf[:0], sc.ends[:0]
	for _, m := range msgs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(encodedSize(m)))
		buf = appendEncode(buf, m)
		ends = append(ends, len(buf))
	}
	sc.buf, sc.ends = buf, ends
	// A peer that stops reading eventually fills the socket; the deadline
	// turns the resulting indefinite block into a dead link the layers
	// above can heal, instead of a wedged sender holding the pair lock.
	_ = sc.c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	nw, werr := sc.c.Write(buf)
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
		sc.sent += int64(accepted)
		sc.dead.Store(true)
		_ = sc.c.Close()
		t.obs.FramesSent.Add(uint64(accepted))
		t.obs.BytesOut.Add(uint64(nw))
		return accepted, fmt.Errorf("transport: send to node %d: %w", to, werr)
	}
	sc.sent += int64(len(msgs))
	t.obs.Batches.Inc()
	t.obs.FramesPerBatch.Observe(int64(len(msgs)))
	t.obs.FramesSent.Add(uint64(len(msgs)))
	t.obs.BytesOut.Add(uint64(len(buf)))
	return len(msgs), nil
}

// Sever kills the (from, to) stream, if the pair has one, modeling a link
// failure: the reader drains what the stream already carried and then
// reconciles the rest through OnLinkDown. It reports whether there was a
// link (live, or mid-dial) to kill. Nothing keeps the pair from redialing
// once the dead stream is reaped: a cut that lasts is the caller's to hold.
func (t *TCP) Sever(from, to int) bool {
	sc := t.current(from, to)
	// Lock-free on purpose: the writer this is meant to interrupt may be
	// holding the pair lock, blocked on the very socket being closed. Swap
	// makes the kill exactly-once; if the dial is still in flight (live
	// unset), conn re-checks dead after publishing the socket and closes it
	// on our behalf.
	if sc == nil || sc.dead.Swap(true) {
		return false
	}
	sc.closeConn()
	return true
}

// WaitReap blocks until the pair's dead incarnation (if any) has been
// reaped: its reader has exited and every frame the stream lost has been
// reported through OnLinkDown. A mesh Close reaps everything, so the wait
// always ends.
func (t *TCP) WaitReap(from, to int) {
	if sc := t.current(from, to); sc != nil && sc.dead.Load() {
		t.reapUndialed(sc, from, to)
		<-sc.reapDone
	}
}

// reapUndialed reaps a dead placeholder no socket ever existed for: it has
// no reader to do it.
func (t *TCP) reapUndialed(sc *sendConn, from, to int) {
	sc.mu.Lock()
	undialed := sc.c == nil
	sc.mu.Unlock()
	if undialed {
		t.reap(sc, from, to)
	}
}

// reap marks the pair dead and reports its unaccounted frames — written to
// the stream but never handed to the deliver callback — through
// OnLinkDown, exactly once. The sent counter is read under the pair lock,
// so a write racing the teardown is either refused (dead was seen) or
// counted here (the write finished first). The delivered counter is
// cumulative across the pair's reconnects, so the incarnation's dial-time
// baseline is subtracted. reapDone closes only after OnLinkDown has
// returned: a redial gated on it therefore starts with the old stream's
// losses fully reported, which is what keeps the pair's wire sequence
// gap-free across a reconnect.
func (t *TCP) reap(sc *sendConn, from, to int) {
	// Kill the socket before queueing on the pair lock: a writer blocked
	// on a full stream holds the lock until the close errors it out, and
	// waiting for it with the socket still open would deadlock the reap.
	sc.dead.Store(true)
	sc.closeConn()
	sc.mu.Lock()
	if sc.reaped {
		sc.mu.Unlock()
		return
	}
	sc.reaped = true
	sent := sc.sent
	base := sc.delivBase
	sc.mu.Unlock()
	if lost := sent - (t.delivered[from*t.n+to].Load() - base); lost > 0 {
		t.obs.FramesLost.Add(uint64(lost))
		if t.OnLinkDown != nil {
			t.OnLinkDown(from, to, int(lost))
		}
	}
	close(sc.reapDone)
}

// Close shuts down listeners and connections, waits for reader goroutines
// to exit, and reconciles every pair's accounting. Safe for concurrent
// use: every caller returns only after the teardown has completed, and no
// delivery callback runs after the first Close returns.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		for _, l := range t.listeners {
			if l != nil {
				_ = l.Close()
			}
		}
		t.mu.Lock()
		keys := make([][2]int, 0, len(t.conns))
		scs := make([]*sendConn, 0, len(t.conns))
		for k, sc := range t.conns {
			keys, scs = append(keys, k), append(scs, sc)
		}
		t.mu.Unlock()
		for _, sc := range scs {
			// Same lock-free kill as reap: a writer blocked on a full
			// socket holds the pair lock, and this close is what frees it.
			sc.dead.Store(true)
			sc.closeConn()
		}
		t.accMu.Lock()
		for c := range t.accepted {
			_ = c.Close()
		}
		t.accMu.Unlock()
		t.wg.Wait()
		// Readers are gone and delivered counters are final: any frame
		// still unaccounted — including ones written into a stream whose
		// reader never started — is lost now.
		for i, sc := range scs {
			t.reap(sc, keys[i][0], keys[i][1])
		}
	})
	return nil
}
