// Package transport carries checkpointing-middleware messages between the
// nodes of a live cluster. Two implementations exist: the runtime's default
// in-process delivery, and the TCP mesh in this package, which sends every
// application message — dependency vector piggyback included — through real
// loopback sockets with length-prefixed binary framing. The TCP mesh makes
// the live-cluster experiments exercise a genuine network path: encoding,
// kernel buffering, per-connection ordering and cross-connection
// reordering.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
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
// is unavailable: the pair is administratively blocked (BreakLink or
// Partition, until the matching heal), a previous stream died and its
// accounting has not been reaped yet, the redial backoff window is still
// open, a fresh dial failed, or the mesh is closed. The refusal is
// immediate — callers that want reliability retry after the backoff (the
// runtime's reliability layer does); callers that treat it as loss lose
// the frame, which the model permits.
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
	// RedialBase and RedialCap shape the exponential redial backoff
	// (defaults 20ms and 1s): after the k-th consecutive dial failure the
	// pair refuses sends for about base<<k, jittered ±50%, capped.
	RedialBase time.Duration
	RedialCap  time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.RedialBase <= 0 {
		o.RedialBase = 20 * time.Millisecond
	}
	if o.RedialCap <= 0 {
		o.RedialCap = time.Second
	}
	return o
}

// redial is one pair's dial-backoff state: consecutive failures and the
// earliest instant the next attempt may go out.
type redial struct {
	attempts int
	next     time.Time
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

	// blocked marks administratively severed directed pairs
	// (BreakLink/Partition): sends refuse with ErrLinkDown until the
	// matching HealLink/HealAll. Atomic so the send path checks it without
	// the mesh lock. partPairs mirrors the count for PartitionedPairs and
	// the gauge.
	blocked   []atomic.Bool
	partPairs atomic.Int64

	// dialMu guards dialBack, the per-pair redial backoff state.
	dialMu   sync.Mutex
	dialBack map[[2]int]redial

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
	// unblocks it is closing the socket — so BreakLink, reap and Close
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
		blocked:   make([]atomic.Bool, n*n),
		dialBack:  make(map[[2]int]redial),
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
	defer t.reapPair(from, to)

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
// Unlike the pre-partition mesh, a dead pair is not permanent: once the
// dead incarnation's accounting has been reaped (and the pair is neither
// blocked nor inside its redial backoff window), the placeholder is
// replaced and the pair redials. Every refusal is immediate — conn never
// blocks on a reap or a backoff — so a caller holding higher-level locks
// (the runtime's per-pair reliability lock, whose OnLinkDown callback the
// reap itself runs) cannot deadlock against the teardown.
func (t *TCP) conn(from, to int) (*sendConn, error) {
	key := [2]int{from, to}
	for {
		if t.blocked[from*t.n+to].Load() {
			return nil, ErrLinkDown
		}
		t.mu.Lock()
		sc, ok := t.conns[key]
		if !ok {
			select {
			case <-t.closed:
				t.mu.Unlock()
				return nil, ErrLinkDown
			default:
			}
			if t.inBackoff(key) {
				t.mu.Unlock()
				return nil, ErrLinkDown
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
			sc.mu.Lock()
			undialed := sc.c == nil
			sc.mu.Unlock()
			if undialed {
				// No socket ever existed, so no reader will reap it.
				t.reap(sc, from, to)
			}
			select {
			case <-sc.reapDone:
			default:
				return nil, ErrLinkDown
			}
			t.mu.Lock()
			if t.conns[key] == sc {
				delete(t.conns, key)
			}
			t.mu.Unlock()
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
				// the next Send dial afresh, after the backoff.
				t.obs.DialFailures.Inc()
				t.dialFailed(key)
				sc.dead.Store(true)
				sc.mu.Unlock()
				t.reap(sc, from, to) // nothing was sent; closes reapDone
				t.mu.Lock()
				if t.conns[key] == sc {
					delete(t.conns, key)
				}
				t.mu.Unlock()
				return nil, fmt.Errorf("transport: dial node %d: %w", to, err)
			}
			sc.c = conn
			sc.delivBase = t.delivered[from*t.n+to].Load()
			sc.live.Store(&conn)
			t.dialOK(key)
			if sc.dead.Load() {
				// A BreakLink raced the dial: it marked the pair dead while
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

// inBackoff reports whether the pair's redial backoff window is still open.
func (t *TCP) inBackoff(key [2]int) bool {
	t.dialMu.Lock()
	defer t.dialMu.Unlock()
	st, ok := t.dialBack[key]
	return ok && time.Now().Before(st.next)
}

// dialFailed records a failed attempt and arms the next backoff window:
// exponential in the failure count, jittered ±50%, capped.
func (t *TCP) dialFailed(key [2]int) {
	t.dialMu.Lock()
	defer t.dialMu.Unlock()
	st := t.dialBack[key]
	st.attempts++
	d := t.opts.RedialBase
	for i := 1; i < st.attempts && d < t.opts.RedialCap; i++ {
		d *= 2
	}
	if d > t.opts.RedialCap {
		d = t.opts.RedialCap
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	st.next = time.Now().Add(d)
	t.dialBack[key] = st
}

// dialOK clears the pair's backoff state after a successful dial.
func (t *TCP) dialOK(key [2]int) {
	t.dialMu.Lock()
	delete(t.dialBack, key)
	t.dialMu.Unlock()
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

// BreakLink blocks and severs the (from, to) stream, modeling a link
// failure: the sender side refuses further frames with ErrLinkDown, the
// reader drains what the stream already carried and then reconciles the
// rest through OnLinkDown. The block persists — the pair will not redial —
// until HealLink (or HealAll) lifts it. It reports whether there was a
// link (live, or mid-dial) to break; the block is installed either way.
func (t *TCP) BreakLink(from, to int) bool {
	t.setBlocked(from, to, true)
	return t.sever(from, to)
}

// sever kills the pair's current stream incarnation, if any.
func (t *TCP) sever(from, to int) bool {
	t.mu.Lock()
	sc := t.conns[[2]int{from, to}]
	t.mu.Unlock()
	if sc == nil {
		return false
	}
	// Lock-free on purpose: the writer this break is meant to interrupt
	// may be holding the pair lock, blocked on the very socket being
	// closed. Swap makes the kill exactly-once; if the dial is still in
	// flight (live unset), conn re-checks dead after publishing the
	// socket and closes it on our behalf.
	if sc.dead.Swap(true) {
		return false
	}
	sc.closeConn()
	return true
}

// setBlocked flips the pair's administrative block, keeping the
// partitioned-pairs gauge in step. Reports whether the state changed.
func (t *TCP) setBlocked(from, to int, v bool) bool {
	if t.blocked[from*t.n+to].Swap(v) == v {
		return false
	}
	if v {
		t.partPairs.Add(1)
		t.obs.PartitionedPairs.Add(1)
	} else {
		t.partPairs.Add(-1)
		t.obs.PartitionedPairs.Add(-1)
	}
	return true
}

// HealLink lifts the (from, to) block installed by BreakLink or Partition
// and clears the pair's redial backoff, so the next send dials afresh. It
// waits for the dead stream's reap (if one is pending) before returning:
// when HealLink returns, every frame the old stream lost has been reported
// through OnLinkDown, so a reliability layer can flush its retransmit
// backlog immediately. Reports whether the pair was blocked.
func (t *TCP) HealLink(from, to int) bool {
	healed := t.setBlocked(from, to, false)
	t.dialOK([2]int{from, to})
	t.waitReap(from, to)
	return healed
}

// Partition blocks and severs every directed pair that crosses the given
// groups, atomically installing all blocks before killing any stream.
// Nodes absent from every group form one implicit extra group: Partition
// ([][]int{{3}}) isolates node 3 from everyone else, and two halves
// split-brain the mesh. Group members must be valid and distinct.
func (t *TCP) Partition(groups [][]int) error {
	member := make([]int, t.n)
	for i := range member {
		member[i] = -1
	}
	for g, group := range groups {
		for _, p := range group {
			if p < 0 || p >= t.n {
				return fmt.Errorf("transport: partition member %d outside %d-process mesh", p, t.n)
			}
			if member[p] != -1 {
				return fmt.Errorf("transport: partition lists node %d twice", p)
			}
			member[p] = g
		}
	}
	var cross [][2]int
	for from := 0; from < t.n; from++ {
		for to := 0; to < t.n; to++ {
			if from == to || member[from] == member[to] {
				continue
			}
			t.setBlocked(from, to, true)
			cross = append(cross, [2]int{from, to})
		}
	}
	// Blocks are all installed; no new stream can form across the cut.
	// Killing the existing streams afterwards severs every cross-group
	// pair without a window where a severed pair could redial.
	for _, pair := range cross {
		t.sever(pair[0], pair[1])
	}
	return nil
}

// HealAll lifts every administrative block and redial backoff, then waits
// for the reaps of all dead streams, so that when it returns every lost
// frame has been reported through OnLinkDown and the whole mesh is free to
// redial. Returns how many directed pairs were unblocked.
func (t *TCP) HealAll() int {
	healed := 0
	for from := 0; from < t.n; from++ {
		for to := 0; to < t.n; to++ {
			if from != to && t.setBlocked(from, to, false) {
				healed++
			}
		}
	}
	t.dialMu.Lock()
	clear(t.dialBack)
	t.dialMu.Unlock()
	t.mu.Lock()
	pairs := make([][2]int, 0, len(t.conns))
	for k, sc := range t.conns {
		if sc.dead.Load() {
			pairs = append(pairs, k)
		}
	}
	t.mu.Unlock()
	for _, p := range pairs {
		t.waitReap(p[0], p[1])
	}
	return healed
}

// PartitionedPairs reports how many directed pairs are currently blocked.
func (t *TCP) PartitionedPairs() int { return int(t.partPairs.Load()) }

// waitReap blocks until the pair's dead incarnation (if any) has been
// reaped. An undialed dead placeholder has no reader to reap it, so it is
// reaped here; a mesh Close reaps everything, so the wait always ends.
func (t *TCP) waitReap(from, to int) {
	t.mu.Lock()
	sc := t.conns[[2]int{from, to}]
	t.mu.Unlock()
	if sc == nil || !sc.dead.Load() {
		return
	}
	sc.mu.Lock()
	undialed := sc.c == nil
	sc.mu.Unlock()
	if undialed {
		t.reap(sc, from, to)
	}
	<-sc.reapDone
}

// reapPair runs the lost-frame reconciliation for a pair whose reader has
// exited (it is called from the reader goroutine itself, and from Close
// after every reader has been waited out).
func (t *TCP) reapPair(from, to int) {
	t.mu.Lock()
	sc := t.conns[[2]int{from, to}]
	t.mu.Unlock()
	if sc != nil {
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
