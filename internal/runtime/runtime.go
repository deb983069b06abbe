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
// Every node records its own middleware events — checkpoints, sends,
// receives — in its own append-only log, under the lock it already holds,
// each stamped with a tick from one cluster-wide atomic counter; no message
// touches shared history state. History merges the logs by tick when asked.
// Tick order is a linearization (a node's ticks increase under its lock, and
// a receive draws its tick after its send returned) and, for a serialized
// execution, is exactly the order things happened — so tests can still
// rebuild the exact checkpoint and communication pattern and run the
// internal/ccp oracles against a concurrent execution (see package history).
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/ccp"
	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/runtime/history"
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
	// middleware bookkeeping.
	NewApp func(self int) app.App
	// TCP selects the wire under the link layer: a loopback TCP mesh
	// (internal/transport), so the piggybacked vectors cross a real network
	// path, instead of the in-process hand-off to the receiver's ingress
	// ring. Sender pool, cuts, retransmit, backpressure: the same on both.
	TCP bool
	// Compress piggybacks only the dependency-vector entries changed since
	// the previous send to the same destination (Singhal–Kshemkalyani).
	// The technique requires reliable per-pair FIFO channels: NewCluster
	// rejects a lossy network, SetNetwork rejects loss bursts, the sender
	// pool sequences each (sender, receiver) pair in send order, and the
	// link layer keeps that order across cuts and reconnects on either wire.
	Compress bool
	// OnDeliver, if set, is the application-level message handler: it runs
	// under the receiving node's middleware lock, after the forced
	// checkpoint (if any) and the vector merge, so state it mutates is
	// atomic with respect to checkpoints — exactly like Node.Update.
	OnDeliver func(self int, a app.App, payload []byte)
	// Link tunes the link layer every cluster runs: the retry backoff, the
	// per-pair retransmit window that replays frames stranded by a severed
	// or partitioned link after it heals, and the TCP wire's socket
	// deadlines.
	Link LinkOptions
	// Obs attaches live telemetry: a metrics registry instrumenting the
	// kernel, sender pool, mesh and stores, and a flight recorder capturing
	// the protocol event stream. The zero value (both nil) is the default
	// and keeps every hot path at its uninstrumented cost.
	Obs obs.Options
}

// Cluster is a set of live middleware nodes.
type Cluster struct {
	cfg   Config
	nodes []*Node
	// kernels[i] is nodes[i].k: the form node.ApplyLine takes, built once so
	// a recovery session allocates nothing for it.
	kernels []*node.Kernel

	inflight inflight
	closed   atomic.Bool // set by Close; retry timers and parks observe it

	rngMu sync.Mutex
	rng   *rand.Rand

	// st packs the network epoch and the halt flag (epoch<<1 | halted) into
	// one word, so the send path and the drains read both as one snapshot
	// with a load. A recovery session is the only writer.
	st atomic.Uint64

	// tick orders the nodes' logs (see package history): every recorded event
	// draws the next value, and a send's tick doubles as its message id.
	// cutVisited sums what sessions looked at while cutting logs.
	tick       atomic.Uint64
	cutVisited int

	// dvMu guards the piggyback freelists: dvFree, which full-vector
	// snapshots are drawn from (CloneDV), and entFree, which the entry
	// buffers of compressed piggybacks are drawn from (EntryBuf). Both are
	// returned by recycle once nothing on the sender's side can read the
	// piggyback again — a delivery consumed it, or the pair's retransmit
	// window pruned its frame — so the per-message send path allocates
	// neither.
	dvMu    sync.Mutex
	dvFree  []vclock.DV
	entFree [][]node.Entry

	// queues are the sender pool: one due-time-ordered queue and at most
	// one worker goroutine per destination (see sendpool.go). pairDue
	// backs the per-pair FIFO clamp — the latest due time handed out per
	// (from, to) pair, guarded by the destination queue's lock; nil on a
	// cluster that needs no clamp (see NewCluster).
	queues  []destQueue
	pairDue []time.Time

	// wireErrs counts connections the TCP wire severed on undecodable frames —
	// a poisoned link is a diagnosable counter, not a silent hang. Cluster-
	// owned (the accessor predates the registry); with Config.Obs set the
	// same cell is adopted into the registry as runtime.wire_errors.
	wireErrs obs.Counter

	obs    obs.RuntimeMetrics // zero (free) unless Config.Obs named a registry
	flight *obs.Recorder      // nil unless Config.Obs named a recorder

	// wire carries the link layer's frames to the receivers: the in-process
	// hand-off or the TCP mesh (wire.go). Chosen once, in NewCluster.
	wire wire

	// The link layer (link.go): links/linkOpts hold its per-pair state,
	// wireDeliv the cumulative frames the wire handed to a receiver per
	// (from,to) pair (duplicates included — it prunes the retransmit window,
	// whose entries are wire acceptances), and cutPairs the directed pairs
	// BreakLink/Partition currently hold cut. created lists the pairLinks
	// that exist, in creation order and append-only under linkMu: what a
	// sweep over the pairs visits, instead of the n² slots most of which
	// stay nil.
	linkOpts  LinkOptions
	links     []atomic.Pointer[pairLink]
	linkMu    sync.Mutex
	created   []*pairLink
	wireDeliv []atomic.Int64
	cutPairs  atomic.Int64

	// jit feeds the retry-backoff jitter. It is deliberately NOT c.rng:
	// retry attempts are wall-clock paced, so their draw count is
	// nondeterministic, and sharing the stream that decides message loss
	// would let an open partition perturb the loss sequence — breaking
	// the deterministic engine's byte-identical-table contract.
	jitMu sync.Mutex
	jit   *rand.Rand
}

// Node is one process's middleware endpoint: a kernel behind a lock. All
// exported methods are safe for concurrent use.
type Node struct {
	c  *Cluster
	id int
	mu sync.Mutex
	k  *node.Kernel

	// down marks a crashed process: its volatile state is gone, deliveries
	// to it are dropped, and every application-facing method refuses with
	// ErrCrashed until Restart rehydrates it from stable storage.
	down bool

	// staged is the stage sequence number of the node's newest checkpoint
	// (storage.Store.Staged), written under mu each time the kernel takes
	// one: the ticket of every frame built until the next. fence holds the
	// frames whose ticket the store has not yet reported durable (fence.go).
	staged uint64
	fence  fence

	// log is this process's history, appended to under mu.
	log history.Log

	// ing is the bounded ingress ring every inbound batch passes through
	// (see ingress.go); pbs/meta are the drain's reusable kernel-call
	// scratch and postFn the pre-bound per-message post hook, all owned by
	// whichever producer holds the drainer role.
	ing    ingress
	pbs    []node.Piggyback
	meta   []deliverMeta
	postFn func(i int)
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
	c := &Cluster{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Net.Seed)),
		obs:    obs.RuntimeMetricsFrom(cfg.Obs.Registry),
		flight: cfg.Obs.Recorder,
	}
	cfg.Obs.Registry.RegisterCounter(obs.RuntimeWireErrors, &c.wireErrs)
	c.inflight.init()
	c.queues = make([]destQueue, cfg.N)
	for i := range c.queues {
		c.queues[i].to = i
		c.queues[i].wake = make(chan struct{}, 1)
		// The heap, dispatch scratch and worker timer are built up front:
		// paying them lazily would bill the first message to every
		// destination for the queue's whole infrastructure — visible as
		// allocation noise at large n — for a few hundred KB at n=1024.
		// The timer arrives armed; the first worker's drain absorbs the
		// stale fire.
		c.queues[i].h = make([]pending, 0, 4)
		c.queues[i].batch = make([]pending, 0, 4)
		c.queues[i].timer = time.NewTimer(workerIdle)
	}
	if cfg.Compress || cfg.TCP {
		// Compressed piggybacking needs strict per-pair send-order FIFO, and
		// a TCP cluster has always promised it (a pair is one stream).
		c.pairDue = make([]time.Time, cfg.N*cfg.N)
	}
	c.linkOpts = cfg.Link.withDefaults()
	c.links = make([]atomic.Pointer[pairLink], cfg.N*cfg.N)
	c.wireDeliv = make([]atomic.Int64, cfg.N*cfg.N)
	c.jit = rand.New(rand.NewSource(cfg.Net.Seed ^ 0x6a09e667f3bcc908))
	// The one place that asks which wire; nothing arrives on either before
	// the first send, so it may open before the nodes exist.
	c.wire = handoff{c}
	if cfg.TCP {
		mesh, err := newMeshWire(c)
		if err != nil {
			return nil, err
		}
		c.wire = mesh
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
			Driver:   c,
			Metrics:  obs.KernelMetricsFrom(cfg.Obs.Registry),
		})
		if err != nil {
			_ = storage.Close(store) // no node holds it yet for Close to find
			_ = c.Close()
			return nil, fmt.Errorf("runtime: %w", err)
		}
		nd.k = k
		nd.staged = store.Staged() // s^0's ticket; the kernel hook sees only later checkpoints
		nd.ing.space.L = &nd.ing.mu
		nd.ing.done.L = &nd.ing.mu
		nd.postFn = nd.postDeliver
		// Drain scratch is built up front like the sender queues': growing
		// it lazily would bill every node's first drains — mid-measurement
		// — for the ring's working memory (≈2KB per node). Saturated
		// drains still grow past this once and keep the larger capacity.
		nd.ing.scratch = make([][]pending, 0, 4)
		nd.pbs = make([]node.Piggyback, 0, 8)
		nd.meta = make([]deliverMeta, 0, 8)
		k.PrewarmBatch()
		c.nodes = append(c.nodes, nd)
		c.kernels = append(c.kernels, k)
	}
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
			c.pairDue = make([]time.Time, cfg.N*cfg.N)
		}
	}
	return c, nil
}

// Close releases what NewCluster acquired: the wire, and every
// stable store Config.NewStore opened — whoever called NewStore closes, so
// a log store's goroutines and tail segment do not outlive the cluster and
// its staged tombstones are committed. Close during an open partition
// returns promptly: the dead flag is set first, so retry timers and parked
// backlogs observe it and abandon their work instead of waiting out a
// backoff schedule. It must not overlap a recovery session,
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

// WireErrors counts TCP connections severed by undecodable frames — the
// loud trace a poisoned link leaves instead of a silent hang.
func (c *Cluster) WireErrors() uint64 { return c.wireErrs.Value() }

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

// History returns a snapshot of the linearized middleware history; replayed
// through internal/ccp it reconstructs the exact pattern of the concurrent
// execution so far. It is built on demand by merging the nodes' logs, with
// every node locked for the duration (as a recovery session locks them), so
// the snapshot is exactly the events recorded before it.
func (c *Cluster) History() ccp.Script {
	logs := make([]*history.Log, len(c.nodes))
	for i, n := range c.nodes {
		n.mu.Lock()
		logs[i] = &n.log
	}
	defer func() {
		for _, n := range c.nodes {
			n.mu.Unlock()
		}
	}()
	return history.Linearize(logs)
}

// Oracle rebuilds the ground-truth CCP from the recorded history.
func (c *Cluster) Oracle() *ccp.CCP {
	h := c.History()
	return h.BuildCCP()
}

// PiggybackEntries returns the total dependency-vector entries piggybacked
// on messages so far, summed over the nodes — n per full-vector send, only
// the changed entries per send with Compress.
func (c *Cluster) PiggybackEntries() int {
	total := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		total += n.k.PiggybackEntries()
		n.mu.Unlock()
	}
	return total
}

// CloneDV implements node.Driver: it serves the piggyback snapshot from
// the cluster's freelist when a delivered message has returned one, and
// allocates otherwise. Piggybacks escape onto network goroutines, so the
// freelist is shared and mutex-guarded — the lock is uncontended leaf
// state and far cheaper than the per-message allocation it replaces.
func (c *Cluster) CloneDV(src vclock.DV) vclock.DV {
	c.dvMu.Lock()
	if k := len(c.dvFree); k > 0 {
		dv := c.dvFree[k-1]
		c.dvFree = c.dvFree[:k-1]
		c.dvMu.Unlock()
		dv.CopyFrom(src)
		return dv
	}
	c.dvMu.Unlock()
	return src.Clone()
}

// EntryBuf implements node.Driver: the buffer a compressed piggyback's
// entries are built in, from the freelist when a pruned frame has returned
// one. Buffers keep whatever capacity their messages grew them to; nothing
// here sizes one by n, so sparse traffic at large n stays small.
func (c *Cluster) EntryBuf() []node.Entry {
	c.dvMu.Lock()
	defer c.dvMu.Unlock()
	k := len(c.entFree)
	if k == 0 {
		return nil
	}
	buf := c.entFree[k-1]
	c.entFree = c.entFree[:k-1]
	return buf
}

// recycle returns a dead piggyback's buffer to its freelist: the entry
// buffer of a compressed one, the snapshot of a full-vector one (full-size
// vectors only; foreign lengths are dropped). The caller guarantees nothing
// will read the piggyback again, and that its memory came from CloneDV or
// EntryBuf — never a transport frame view.
func (c *Cluster) recycle(pb node.Piggyback) {
	switch {
	case pb.Compressed:
		if cap(pb.Entries) == 0 {
			return
		}
		c.dvMu.Lock()
		c.entFree = append(c.entFree, pb.Entries[:0])
		c.dvMu.Unlock()
	case len(pb.DV) == c.cfg.N:
		c.dvMu.Lock()
		c.dvFree = append(c.dvFree, pb.DV)
		c.dvMu.Unlock()
	}
}

// CheckpointState implements node.Driver: live checkpoints carry the
// application snapshot (handled by the kernel), never an accounting
// payload.
func (c *Cluster) CheckpointState() []byte { return nil }

// OnKernelCheckpoint implements node.Driver: checkpoints (basic and the
// forced ones the delivery path takes) land in the node's history the
// instant they are staged, while the node's lock is held, and the stage
// number becomes the ticket of every frame the node builds from here on.
func (c *Cluster) OnKernelCheckpoint(self, index int, basic bool) {
	n := c.nodes[self]
	n.staged = n.k.Store().Staged()
	n.log.Checkpoint(c.tick.Add(1))
	forced := 0
	if !basic {
		forced = 1
	}
	c.flight.Record(obs.Event{
		Kind: obs.EvCheckpoint, P: self, Msg: index, Aux: forced, Clock: index,
	})
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
	c.cfg.Net.MinDelay, c.cfg.Net.MaxDelay, c.cfg.Net.Loss = minDelay, maxDelay, loss
	return nil
}

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
	if n.down {
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
	pb, err := n.k.Send(to)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	// The send's tick is the message's id on the wire and in the flight
	// recorder: unique, increasing per sender, never rewound by a session.
	tick := n.c.tick.Add(1)
	n.log.Send(tick)
	msg := int(tick)
	n.c.flight.Record(obs.Event{
		Kind: obs.EvSend, P: n.id, Msg: msg, Aux: to, Clock: n.k.DVRef()[n.id],
	})
	delay, drop := n.c.randDelayDrop()
	if drop {
		// The unused snapshot still feeds the freelist. A compressed
		// cluster never draws drops (loss is rejected at configuration
		// time), so a dropped message cannot leave a FIFO gap.
		n.c.recycle(pb)
		n.mu.Unlock()
		return nil
	}
	n.c.inflight.Add(1)
	// Handed over under the sender's lock, so a pair's messages enter the
	// fence, and behind it the destination queue, in encode order — the
	// order the due-time clamp then preserves through the heap.
	err = n.egress(to, delivery{msg: msg, pb: pb, epoch: epoch, payload: payload}, delay)
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
	if n.down {
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

// App returns the node's attached application state machine, or nil.
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
	if n.down {
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

// Down reports whether the process is currently crashed.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// Store exposes the node's stable store.
func (n *Node) Store() storage.Store { return n.k.Store() }

// Collector exposes the node's local collector (for test inspection).
func (n *Node) Collector() gc.Local { return n.k.Collector() }
