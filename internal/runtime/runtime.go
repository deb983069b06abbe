// Package runtime is the live concurrent driver of the shared middleware
// kernel (internal/node): one goroutine-safe node per process, each
// wrapping a kernel, connected by an asynchronous network with configurable
// delivery delay and message loss. All per-process middleware
// logic — dependency-vector merge, piggyback build and compression, the
// forced-checkpoint decision, stable-store writes, rollback and
// rehydration — lives in the kernel, exactly the code the deterministic
// simulator drives; this package contributes what a practical deployment
// needs: locks, the asynchronous network (sender pool, link layer, and under
// it one of two wires: an in-process hand-off or a loopback TCP mesh),
// network epochs, and the crash/restart lifecycle. It realizes the
// "evaluation in a practical environment" the paper lists as future work
// (Section 6), with deliveries racing application activity.
//
// A cluster built with Config.Record also keeps its history: its flight
// recorder keeps every event — checkpoints, sends, receives, rollbacks —
// each recorded under the lock of the node it belongs to, and History joins
// them when asked (see record.go), so tests and the chaos engine can rebuild
// the exact checkpoint and communication pattern of a concurrent execution
// and run the internal/ccp oracles against it. A cluster built without it —
// the default — keeps nothing it was not asked to: its memory holds what the
// paper bounds.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// ErrHalted is returned by Send and Checkpoint while a recovery session is
// in progress.
var ErrHalted = errors.New("runtime: cluster halted for recovery")

// ErrCrashed is returned by Send, Checkpoint and Update on a process that
// has crashed and not yet restarted.
var ErrCrashed = errors.New("runtime: process has crashed")

// NetworkOptions shapes the asynchronous network.
type NetworkOptions struct {
	// MinDelay/MaxDelay bound the uniformly random delivery delay.
	MinDelay, MaxDelay time.Duration
	// Loss is the probability a message is dropped in transit.
	Loss float64
	// Seed makes loss and delay decisions reproducible (the interleaving
	// of goroutines still is not, by design).
	Seed int64
}

// Config assembles a Cluster.
type Config struct {
	N        int
	Protocol func(self int) protocol.Protocol
	LocalGC  func(self, n int, store storage.Store) gc.Local
	NewStore func(self int) (storage.Store, error)
	Net      NetworkOptions
	// NewApp, if set, attaches an application state machine to each node:
	// its snapshot is saved with every checkpoint, and a rollback restores
	// it to the checkpointed state — application-level rollback, not just
	// middleware bookkeeping. It runs once per node, in NewCluster: a crash
	// kills the state, and the restart restores the same object.
	NewApp func(self int) app.App
	// TCP selects the wire under the link layer: a loopback TCP mesh
	// (internal/transport), so the piggybacked vectors cross a real network
	// path, instead of the in-process hand-off, which applies a run under
	// the receiver's lock itself. Sender pool, cuts, backlog, backpressure:
	// the same on both. A TCP frame has a 1 MiB cap, so a send refuses a
	// payload too large for it.
	TCP bool
	// Compress piggybacks only the dependency-vector entries changed since
	// the previous send to the same destination (Singhal–Kshemkalyani).
	// The technique requires reliable per-pair FIFO channels: NewCluster
	// rejects a lossy network, SetNetwork rejects loss bursts, the sender
	// pool sequences each (sender, receiver) pair in send order, and the
	// link layer keeps that order across cuts on either wire.
	Compress bool
	// OnDeliver, if set, is the application-level message handler: it runs
	// under the receiving node's middleware lock, after the message's forced
	// checkpoint (if any) and its vector merge, compressed or not, so state
	// it mutates is atomic with respect to checkpoints — exactly like
	// Node.Update.
	OnDeliver func(self int, a app.App, payload []byte)
	// Obs attaches live telemetry: a metrics registry instrumenting the
	// kernel, sender pool, mesh and stores, and a flight recorder capturing
	// the protocol event stream. The zero value (both nil) is the default
	// and keeps every hot path at its uninstrumented cost.
	Obs obs.Options
	// Record keeps the history History and Oracle rebuild: the cluster's
	// flight recorder — Obs.Recorder, or one NewCluster makes — keeps every
	// event for the cluster's life, and no other cluster may share it
	// (record.go). Whoever checks the execution against the internal/ccp
	// oracles sets it — tests, the chaos engine, the facade's live cluster.
	// Off (the default), the recorder, if any, keeps its window, and History
	// and Oracle panic.
	Record bool
}

// Cluster is a set of live middleware nodes.
type Cluster struct {
	cfg   Config
	nodes []*Node
	// kernels[i] is nodes[i].k: the form node.ApplyLine takes, and view the
	// same as gc.View, which gc.ComputeLine takes. Both are built once, so a
	// recovery session allocates nothing for them; view lends the live
	// vectors, so it is read only under every node lock.
	kernels []*node.Kernel
	view    gc.View

	inflight inflight
	closed   atomic.Bool // set by Close; parks and heals observe it

	// rngMu guards rng and the network shape (cfg.Net). quiet publishes the
	// shape to the send path: the fixed delay, in nanoseconds, of a network
	// that injects nothing — no loss, no delay spread — or -1. A send on a
	// quiet network takes no lock and draws nothing; it counts the draw it
	// skipped on its own Node, and SetNetwork replays the count into rng
	// before the shape changes (DESIGN.md, "A message takes no
	// cluster-wide lock").
	rngMu sync.Mutex
	rng   *rand.Rand
	quiet atomic.Int64

	// st packs the network epoch and the halt flag (epoch<<1 | halted) into
	// one word, so the send path and the drains read both as one snapshot
	// with a load. A recovery session is the only writer.
	st atomic.Uint64

	// rec is a recorded cluster's message-id source (record.go).
	rec recording

	// queues are the sender pool: one due-time-ordered queue and at most
	// one worker goroutine per destination (see sendpool.go). pairDue
	// backs the per-pair FIFO clamp — the latest due time handed out per
	// (from, to) pair, in mono's nanoseconds, guarded by the destination
	// queue's lock; nil on a cluster that needs no clamp (see NewCluster).
	// t0 is the origin of mono, the pool's clock.
	queues  []destQueue
	pairDue []int64
	t0      time.Time

	obs    obs.RuntimeMetrics // zero (free) unless Config.Obs named a registry
	flight *obs.Recorder      // Config.Obs's recorder; on a recorded cluster never nil

	// wire carries the link layer's frames to the receivers: the in-process
	// hand-off or the TCP mesh (wire.go). Chosen once, in NewCluster.
	wire wire

	// The link layer (link.go): links holds its per-pair state,
	// cutPairs the directed pairs BreakLink/Partition currently hold cut,
	// and downLinks the pairLinks whose down flag is set (setDown keeps
	// it): with none, a session has nothing to purge and sweeps no pair.
	// created lists the pairLinks that exist, in creation order and
	// append-only under linkMu: what a sweep over the pairs visits, instead
	// of the n² slots most of which stay nil.
	links     []atomic.Pointer[pairLink]
	linkMu    sync.Mutex
	created   []*pairLink
	cutPairs  atomic.Int64
	downLinks atomic.Int64

	// maxPayload is the largest payload a send may carry: a TCP frame has a
	// cap (transport.MaxPayload), the in-process hand-off none.
	maxPayload int
}

// Node is one process's middleware endpoint: a kernel behind a lock. All
// exported methods are safe for concurrent use. It is its kernel's
// node.Driver.
type Node struct {
	c  *Cluster
	id int
	mu sync.Mutex
	k  *node.Kernel

	// skipped counts the network draws this node's sends skipped on a quiet
	// network; SetNetwork replays and zeroes it (Cluster.quiet).
	skipped atomic.Uint64

	// pool is the node's piggyback freelist, which its kernel's snapshots
	// and entry buffers are drawn from (CloneDV, EntryBuf). A piggyback's
	// buffers return to its sender's pool once nothing on the sending side
	// can read it again — the in-process wire delivered it, or the TCP wire
	// encoded its frame — so the per-message send path allocates neither.
	// Its lock is a leaf: it is taken under n.mu, fence.mu, a destination
	// queue's lock or a pair's lock.
	pool node.Pool

	// down marks a crashed process: its volatile state is gone, deliveries
	// to it are dropped, and every application-facing method refuses with
	// ErrCrashed until Restart rehydrates it from stable storage. It is
	// written under mu, and atomic so that Down reads it without the lock.
	down atomic.Bool

	// staged is the stage sequence number of the node's newest checkpoint
	// (storage.Store.Staged), written under mu each time the kernel takes
	// one: the ticket of every frame built until the next. fence holds the
	// frames whose ticket the store has not yet reported durable (fence.go).
	staged uint64
	fence  fence

	// lastID is the id of the last message the node sent on an unrecorded
	// cluster: ids count per sender, under mu, and survive Crash and
	// Restart, so (From, Msg) names one message for the cluster's life.
	lastID uint64
}

// NewCluster starts a cluster. As in the model, every node stores its
// initial checkpoint s^0 before any activity: the n checkpoints are staged
// as the nodes are built and NewCluster returns once all are durable — the
// stores flush side by side, not one after the other.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("runtime: need at least one process")
	}
	if cfg.Compress && cfg.Net.Loss > 0 {
		return nil, fmt.Errorf("runtime: compressed piggybacking requires reliable channels; configure Loss=0, not %g", cfg.Net.Loss)
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func(int) (storage.Store, error) { return storage.NewMemStore(), nil }
	}
	flight := cfg.Obs.Recorder
	if cfg.Record && flight == nil {
		flight = obs.NewRecorder(0)
	}
	if err := flight.Attach(cfg.Record); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	c := &Cluster{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Net.Seed)),
		obs:    obs.RuntimeMetricsFrom(cfg.Obs.Registry),
		flight: flight,
		t0:     time.Now(),
	}
	c.quiet.Store(quietDelay(cfg.Net))
	c.inflight.init()
	c.queues = make([]destQueue, cfg.N)
	for i := range c.queues {
		c.queues[i].to = i
		c.queues[i].wake = make(chan struct{}, 1)
		// The heap, dispatch scratch and worker timer are built up front:
		// paying them lazily would bill the first message to every
		// destination for the queue's whole infrastructure — visible as
		// allocation noise at large n — for a few hundred KB at n=1024.
		// The timer arrives armed; the first worker resets it before its
		// first wait, and a Reset discards a fire nobody received.
		c.queues[i].h = make([]dueKey, 0, 4)
		c.queues[i].slab = make([]pending, 0, 4)
		c.queues[i].free = make([]int32, 0, 4)
		c.queues[i].batch = make([]pending, 0, 4)
		c.queues[i].timer = time.NewTimer(workerIdle)
	}
	if cfg.Compress || cfg.TCP {
		// Compressed piggybacking needs strict per-pair send-order FIFO, and
		// a TCP cluster has always promised it (a pair is one stream).
		c.pairDue = make([]int64, cfg.N*cfg.N)
	}
	c.links = make([]atomic.Pointer[pairLink], cfg.N*cfg.N)
	// The one place that asks which wire; nothing arrives on either before
	// the first send, so it may open before the nodes exist.
	c.wire, c.maxPayload = handoff{c}, math.MaxInt
	if cfg.TCP {
		mesh, err := newMeshWire(c)
		if err != nil {
			return nil, err
		}
		c.wire, c.maxPayload = mesh, mesh.maxPayload()
	}
	for i := 0; i < cfg.N; i++ {
		store, err := cfg.NewStore(i)
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("runtime: stable store of p%d: %w", i, err)
		}
		if ins, ok := store.(obs.Instrumentable); ok && (cfg.Obs.Registry != nil || cfg.Obs.Recorder != nil) {
			ins.SetObs(obs.StoreMetricsFrom(cfg.Obs.Registry), cfg.Obs.Recorder, i)
		}
		nd := &Node{c: c, id: i}
		nd.fence.settled.L = &nd.fence.mu
		store.NotifyDurable(nd.onDurable)
		k, err := node.New(node.Config{
			ID: i, N: cfg.N,
			Store:    store,
			Protocol: cfg.Protocol,
			LocalGC:  cfg.LocalGC,
			NewApp:   cfg.NewApp,
			Compress: cfg.Compress,
			Driver:   nd,
			Metrics:  obs.KernelMetricsFrom(cfg.Obs.Registry),
		})
		if err != nil {
			_ = storage.Close(store) // no node holds it yet for Close to find
			_ = c.Close()
			return nil, fmt.Errorf("runtime: %w", err)
		}
		nd.k = k
		nd.staged = store.Staged() // s^0's ticket; the kernel hook sees only later checkpoints
		c.nodes = append(c.nodes, nd)
		c.kernels = append(c.kernels, k)
	}
	c.view = node.View(c.kernels)
	for _, nd := range c.nodes {
		if err := nd.fence.awaitDurable(nd.staged); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("runtime: initial checkpoint of p%d: %w", nd.id, err)
		}
		if nd.staged != 0 && c.pairDue == nil {
			// Frames leaving a fence together draw their delays together, so
			// without the clamp two of one pair could swap — on a cluster whose
			// due times otherwise follow call times closely enough that callers
			// count on per-pair order. MemStore clusters never fence and do not
			// pay the n² table.
			c.pairDue = make([]int64, cfg.N*cfg.N)
		}
	}
	return c, nil
}

// Close releases what NewCluster acquired: the wire, and every
// stable store Config.NewStore opened — whoever called NewStore closes, so
// a log store's committer and generation file do not outlive the cluster and
// its staged tombstones are committed. Close during an open partition
// returns promptly: the closed flag is set first, so parked backlogs are
// abandoned, not flushed. It must not overlap a recovery session,
// and the cluster is unusable afterwards.
//
// A late forced checkpoint must not reach a closed store, so Close opens the
// way a recovery session does (cancelTransit): sends refuse, what was fenced
// or queued is gone, and a frame already on a socket or in a worker's hands
// drops on the epoch filter. Each store is then closed under its node's
// lock, behind whatever delivery was already in.
func (c *Cluster) Close() error {
	c.closed.Store(true)
	c.cancelTransit()
	c.purgeParked()
	errs := []error{c.wire.close()}
	for _, n := range c.nodes {
		n.mu.Lock()
		errs = append(errs, storage.Close(n.k.Store()))
		n.mu.Unlock()
	}
	return errors.Join(errs...)
}

// mono reads the sender pool's clock: nanoseconds since the cluster was
// built, on the monotonic clock.
func (c *Cluster) mono() int64 { return int64(time.Since(c.t0)) }

// N returns the number of processes.
func (c *Cluster) N() int { return c.cfg.N }

// Node returns the node for process i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Quiesce blocks until every message currently in transit has been
// delivered or dropped. Callers must stop sending first.
func (c *Cluster) Quiesce() {
	if c.obs.QuiesceNs != nil {
		t0 := time.Now()
		c.inflight.Wait()
		c.obs.QuiesceNs.Observe(time.Since(t0).Nanoseconds())
		return
	}
	c.inflight.Wait()
}

// PiggybackEntries returns the total dependency-vector entries piggybacked
// on messages so far, summed over the nodes: what the wire carried — n per
// full-vector send, and with Compress the changed entries, or n for a send
// that shipped the whole vector as the smaller form.
func (c *Cluster) PiggybackEntries() int { return c.sumKernels((*node.Kernel).PiggybackEntries) }

// PiggybackBytes returns the wire bytes of the entries PiggybackEntries
// counts: 8 a whole-vector entry, 16 a changed entry.
func (c *Cluster) PiggybackBytes() int { return c.sumKernels((*node.Kernel).PiggybackBytes) }

// sumKernels sums a kernel counter over the nodes, each read under its
// node's lock.
func (c *Cluster) sumKernels(count func(*node.Kernel) int) int {
	total := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		total += count(n.k)
		n.mu.Unlock()
	}
	return total
}

// CloneDV implements node.Driver from the node's pool.
func (n *Node) CloneDV(src vclock.DV) vclock.DV { return n.pool.CloneDV(src) }

// EntryBuf implements node.Driver from the node's pool.
func (n *Node) EntryBuf() []node.Entry { return n.pool.EntryBuf() }

// OnKernelCheckpoint implements node.Driver: checkpoints (basic and the
// forced ones the delivery path takes) are recorded the instant they are
// staged, while the node's lock is held, and the stage number becomes the
// ticket of every frame the node builds from here on.
func (n *Node) OnKernelCheckpoint(_, index int, basic bool) {
	n.staged = n.k.Store().Staged()
	n.recordCheckpoint(index, basic)
}

func (c *Cluster) curEpoch() uint64 { return c.st.Load() >> 1 }

// state reads the halt flag and the epoch as one snapshot — one load of the
// packed word. The send path must use this combined form: reading them
// separately can pair a stale "not halted" with a post-session epoch, which
// would let a message encoded against pre-session compressor state sail
// into the new epoch (and trip the receiver's FIFO verification).
func (c *Cluster) state() (halted bool, epoch uint64) {
	s := c.st.Load()
	return s&1 != 0, s >> 1
}

func (c *Cluster) isHalted() bool { return c.st.Load()&1 != 0 }

// SetNetwork reshapes the asynchronous network in flight: fault-injection
// harnesses use it for message-loss and delay bursts. The seeded RNG stream
// is kept, so a serial sequence of sends still draws a reproducible
// loss/delay sequence across bursts. A compressed cluster rejects loss
// bursts: incremental piggybacks cannot survive silent message loss.
func (c *Cluster) SetNetwork(minDelay, maxDelay time.Duration, loss float64) error {
	if c.cfg.Compress && loss > 0 {
		return fmt.Errorf("runtime: compressed piggybacking requires reliable channels; cannot set loss %g", loss)
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	// Replay first: every quiet send skipped exactly the one Float64 a send
	// on a network without loss or delay spread draws, so the stream enters
	// the new shape where it would have stood had they drawn. A send racing
	// this call is replayed at the next one.
	for _, n := range c.nodes {
		for k := n.skipped.Swap(0); k > 0; k-- {
			c.rng.Float64()
		}
	}
	c.cfg.Net.MinDelay, c.cfg.Net.MaxDelay, c.cfg.Net.Loss = minDelay, maxDelay, loss
	c.quiet.Store(quietDelay(c.cfg.Net))
	return nil
}

// quietDelay is Cluster.quiet's value for a network shape: its fixed delay
// when it injects no loss and no delay spread, else -1.
func quietDelay(net NetworkOptions) int64 {
	if net.Loss > 0 || net.MaxDelay > net.MinDelay {
		return -1
	}
	return int64(max(net.MinDelay, 0))
}

// netDraw decides a send's network delay and whether the network drops it.
// A quiet network decides without a draw; the skipped draw is counted on the
// sender, whose lock the caller holds.
func (n *Node) netDraw() (time.Duration, bool) {
	if d := n.c.quiet.Load(); d >= 0 {
		n.skipped.Add(1)
		return time.Duration(d), false
	}
	return n.c.randDelayDrop()
}

// randDelayDrop is the draw of a network that injects loss or delay.
func (c *Cluster) randDelayDrop() (time.Duration, bool) {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	drop := c.rng.Float64() < c.cfg.Net.Loss
	span := c.cfg.Net.MaxDelay - c.cfg.Net.MinDelay
	d := c.cfg.Net.MinDelay
	if span > 0 {
		d += time.Duration(c.rng.Int63n(int64(span)))
	}
	return d, drop
}

// Send transmits a message to process "to" through the asynchronous
// network. It returns once the message is handed to the network; delivery
// happens later, on another goroutine, unless the network drops it.
func (n *Node) Send(to int) error { return n.SendPayload(to, nil) }

// SendPayload transmits a message carrying an application payload; the
// receiver's Config.OnDeliver handler processes it under the middleware
// lock.
func (n *Node) SendPayload(to int, payload []byte) error {
	return n.sendPayload(to, payload, nil)
}

// UpdateAndSend applies an application mutation and sends a message as one
// atomic middleware step: no checkpoint can separate the state change from
// the send, so a rollback either keeps both or discards both. This is how
// transactional applications (debit locally, credit remotely) must use the
// middleware — see examples/bank.
func (n *Node) UpdateAndSend(to int, f func(a app.App), payload []byte) error {
	return n.sendPayload(to, payload, f)
}

func (n *Node) sendPayload(to int, payload []byte, update func(a app.App)) error {
	if to < 0 || to >= n.c.cfg.N || to == n.id {
		return fmt.Errorf("runtime: p%d sending to invalid target %d", n.id, to)
	}
	// A send called while a session runs refuses at once, as Checkpoint and
	// Update do, rather than waiting out the session's hold on the lock.
	if n.c.isHalted() {
		return ErrHalted
	}
	// Refused before the kernel encodes anything, so no compressor moves: a
	// frame past the cap would be a bad frame to its reader.
	if len(payload) > n.c.maxPayload {
		return fmt.Errorf("runtime: p%d: a %d-byte payload does not fit the TCP wire's 1 MiB frame cap (%d bytes at most beside a %d-process piggyback)",
			n.id, len(payload), n.c.maxPayload, n.c.cfg.N)
	}
	n.mu.Lock()
	// Halt and epoch are snapshotted together, under the node's lock and
	// before the piggyback is built: a send that straddles a recovery
	// session either refuses with ErrHalted before consuming compressor
	// state, or carries the pre-session epoch and is dropped in delivery.
	halted, epoch := n.c.state()
	if halted {
		n.mu.Unlock()
		return ErrHalted
	}
	if n.down.Load() {
		n.mu.Unlock()
		return ErrCrashed
	}
	if update != nil {
		if n.k.App() == nil {
			n.mu.Unlock()
			return fmt.Errorf("runtime: p%d has no application attached", n.id)
		}
		update(n.k.App())
	}
	// The one delivery this message is built as: egress and enqueue read it
	// through a pointer, and the sender pool's slab slot is its one copy.
	d := delivery{epoch: epoch, payload: payload}
	var err error
	if d.pb, err = n.k.Send(to); err != nil {
		n.mu.Unlock()
		return err
	}
	// The message's id on the wire and in the flight recorder: unique per
	// sender, increasing, never rewound by a session. Recorded before the
	// frame is handed off, so the delivery's record follows it (record.go).
	d.msg = n.recordSend(to)
	delay, drop := n.netDraw()
	if drop {
		// The unused snapshot still feeds the freelist. A compressed
		// cluster never draws drops (loss is rejected at configuration
		// time), so a dropped message cannot leave a FIFO gap.
		n.pool.Recycle(&d.pb)
		n.mu.Unlock()
		return nil
	}
	n.c.inflight.Add(1)
	// Handed over under the sender's lock, so a pair's messages enter the
	// fence, and behind it the destination queue, in encode order — the
	// order the due-time clamp then preserves through the heap.
	err = n.egress(to, &d, delay)
	n.mu.Unlock()
	return err
}

// Checkpoint takes a basic checkpoint and returns once it is durable. The
// node's lock is held only while the checkpoint is staged: deliveries and
// other calls go on during the flush.
func (n *Node) Checkpoint() error {
	if n.c.isHalted() {
		return ErrHalted
	}
	n.mu.Lock()
	if n.down.Load() {
		n.mu.Unlock()
		return ErrCrashed
	}
	_, err := n.k.Checkpoint(true)
	ticket := n.staged
	n.mu.Unlock()
	if err != nil {
		return err
	}
	return n.fence.awaitDurable(ticket)
}

// App returns the node's attached application state machine, or nil — nil
// too while the node is crashed; after Restart it is the same object again.
func (n *Node) App() app.App { return n.k.App() }

// Update mutates the application state under the middleware lock, so the
// mutation is atomic with respect to checkpoints: a checkpoint either
// includes it or does not.
func (n *Node) Update(f func(a app.App)) error {
	if n.c.isHalted() {
		return ErrHalted
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down.Load() {
		return ErrCrashed
	}
	if n.k.App() == nil {
		return fmt.Errorf("runtime: p%d has no application attached", n.id)
	}
	f(n.k.App())
	return nil
}

// Stats reports the node's checkpoint counters and store statistics.
func (n *Node) Stats() (basic, forced int, store storage.Stats) {
	n.mu.Lock()
	defer n.mu.Unlock()
	basic, forced = n.k.Counts()
	return basic, forced, n.k.Store().Stats()
}

// CurrentDV returns a copy of the node's dependency vector.
func (n *Node) CurrentDV() vclock.DV {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.k.DV()
}

// LastStable returns last_s for this node.
func (n *Node) LastStable() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.k.LastStable()
}

// Down reports whether the process is currently crashed. It takes no lock,
// so Cluster.Down and Restart do not wait on a busy node.
func (n *Node) Down() bool { return n.down.Load() }

// Store exposes the node's stable store.
func (n *Node) Store() storage.Store { return n.k.Store() }

// Collector exposes the node's local collector (for test inspection).
func (n *Node) Collector() gc.Local { return n.k.Collector() }
