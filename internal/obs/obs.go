// Package obs is the runtime observability substrate: a metrics registry
// (atomic counters, gauges, fixed-bucket latency histograms) and a flight
// recorder (structured protocol events, one shard per process) that every
// layer of the middleware — kernel, runtime, transport, storage, chaos —
// reports into when a run asks for visibility.
//
// The package is stdlib-only and imports nothing from this repository, so
// anything may import it without creating a layering cycle (the inverse of
// internal/node: obs sits below everything, node sits below the engines).
// scripts/check_layering.sh enforces both directions.
//
// Instrumentation off must cost nothing. Every metric type is a nil-safe
// pointer receiver: a nil *Counter, *Gauge, *Histogram, or *Recorder
// no-ops on its write path without allocating, so instrumented code holds
// plain fields and calls them unconditionally. The kernel, collector and
// store allocation pins (testing.AllocsPerRun tests beside each hot path)
// run with all of these nil and prove the hot paths still allocate exactly
// what they did before obs existed.
//
// This package is the repository's only metrics package: the offline
// experiment statistics (retained checkpoints against the Theorem-1
// optimum, aggregated over seeded runs) are computed by internal/sweep.
package obs

// Options bundles the two halves of observability as a run-level knob.
// The zero value means "off": a nil Registry and nil Recorder flow into
// every layer as nil metric handles, which is the free path.
type Options struct {
	Registry *Registry
	Recorder *Recorder
}

// Metric names, one flat namespace dotted by layer. Keeping them as
// constants in one place makes the registry greppable and keeps the
// per-layer From constructors honest.
const (
	// Kernel (internal/node).
	KernelCheckpointsBasic  = "kernel.checkpoints.basic"
	KernelCheckpointsForced = "kernel.checkpoints.forced"
	KernelDeliveries        = "kernel.deliveries"
	KernelRollbacks         = "kernel.rollbacks"
	KernelPiggybackEntries  = "kernel.piggyback.entries"      // entries actually shipped: changed ones, or n for a whole vector
	KernelPiggybackFull     = "kernel.piggyback.full_entries" // entries a full vector would have shipped
	KernelPiggybackBytes    = "kernel.piggyback.bytes"        // their wire bytes: 16 a changed entry, 8 a whole-vector one
	// KernelDeliveryCoalesced is written by nothing: every message is
	// delivered by its own step, and no delivery folds into another's. The
	// benchmark harness still reads the name (node.coalesced_share), which
	// is 0.
	KernelDeliveryCoalesced = "kernel.delivery.coalesced"

	// Runtime (internal/runtime). timer_resets counts the sender-pool
	// workers' timer arms: one per due-time wait on a delayed network, and
	// otherwise one per idle period (a worker's first idle wait, and each
	// idle fire that comes before workerIdle has passed since its last
	// dispatch) — not one per emptied queue. So it stays at or below
	// worker_spawns plus the due-time waits plus the idle periods.
	RuntimeQueueDepth   = "runtime.sendpool.queue_depth"
	RuntimeWorkerSpawns = "runtime.sendpool.worker_spawns"
	RuntimeWorkerRetire = "runtime.sendpool.worker_retires"
	RuntimeTimerResets  = "runtime.sendpool.timer_resets"
	RuntimeQuiesceNs    = "runtime.quiesce_ns"
	// Ingress ring (the receive path): depth is producer batches queued and
	// not yet drained, summed over the nodes; drains counts applier passes
	// (each one node-lock acquisition for every batch it grabbed); drain_ns
	// is the latency of one pass, grab to applied.
	RuntimeIngressDepth  = "runtime.ingress.depth"
	RuntimeIngressDrains = "runtime.ingress.drains"
	RuntimeIngressNs     = "runtime.ingress.drain_ns"
	// Link layer (per-pair cuts over either wire): parked is the frames a
	// cut holds back, awaiting the heal; retransmits counts the parked
	// frames heals sent on; lost counts frames that will never be
	// delivered — refused by the wire (a closed mesh, a loudly dead
	// connection, a failed dial), stranded by a connection that died
	// loudly, or given up by a closed cluster or a recovery session's purge;
	// and partitioned_pairs gauges the directed pairs BreakLink/Partition
	// hold cut.
	RuntimeLinkRetransmits = "runtime.link.retransmits"
	RuntimeLinkParked      = "runtime.link.parked"
	RuntimeLinkLost        = "runtime.link.lost"
	RuntimeLinkPartitioned = "runtime.link.partitioned_pairs"
	// Egress fence (output commit): depth is the outgoing frames held back
	// because they name a checkpoint that is staged and not yet durable,
	// summed over the nodes; wait_ns is how long each released frame was held.
	RuntimeFenceDepth  = "runtime.fence_depth"
	RuntimeFenceWaitNs = "runtime.fence_wait_ns"
	// session_purged counts the queued frames recovery sessions and Close
	// cancelled in the sender pool: traffic the epoch advance had declared
	// lost, dropped where it waited instead of one delivery at a time.
	RuntimeSessionPurged = "runtime.session_purged"

	// Transport (internal/transport).
	TransportBatches        = "transport.batches"
	TransportFramesPerBatch = "transport.frames_per_batch"
	TransportFramesSent     = "transport.frames_sent"
	TransportFramesDeliv    = "transport.frames_delivered"
	TransportFramesLost     = "transport.frames_lost"
	TransportBytesOut       = "transport.bytes_out"
	TransportBytesIn        = "transport.bytes_in"
	TransportReads          = "transport.reads" // read calls on the mesh's streams, one that would block included
	TransportDials          = "transport.dials"
	TransportDialFailures   = "transport.dial_failures"
	TransportBadFrames      = "transport.bad_frames"

	// Storage (internal/storage).
	StorageSaves    = "storage.saves"
	StorageDeletes  = "storage.deletes"
	StorageSaveNs   = "storage.save_ns"
	StorageLoadNs   = "storage.load_ns"
	StorageRetained = "storage.retained"

	// Storage, log backend only (internal/storage/logstore): group-commit
	// shape and the generation lifecycle. MemStore leaves these untouched.
	StorageBatchRecords = "storage.commit.batch_records" // records per group commit
	StorageCommitNs     = "storage.commit_ns"            // write+sync latency per batch
	StorageCompactions  = "storage.compactions"          // generation switches: live set rewritten, old file removed
	StorageTornTails    = "storage.torn_tails"           // torn tails truncated at replay
	StorageLiveRatioPct = "storage.live_ratio_pct"       // live bytes / generation bytes, percent
	StorageDurableLag   = "storage.durable_lag"          // saves staged and not yet durable (staged − durable sequence)

	// Chaos / recovery (internal/chaos, internal/runtime recovery).
	ChaosCrashes          = "chaos.crashes"
	ChaosRecoveries       = "chaos.recoveries"
	ChaosRecoveryNs       = "chaos.recovery_ns"
	ChaosOracleOK         = "chaos.oracle_ok"
	ChaosOracleViolations = "chaos.oracle_violations"
	ChaosObsoleteRetained = "chaos.obsolete_retained"
)

// KernelMetrics is the kernel's handle bundle. The zero value (all nil)
// is the off state; node.Kernel holds it by value and writes through it
// unconditionally.
type KernelMetrics struct {
	CheckpointsBasic  *Counter
	CheckpointsForced *Counter
	Deliveries        *Counter
	Rollbacks         *Counter
	PiggybackEntries  *Counter
	PiggybackFull     *Counter
	PiggybackBytes    *Counter
}

// KernelMetricsFrom resolves the kernel bundle against a registry. A nil
// registry yields the zero (free) bundle.
func KernelMetricsFrom(r *Registry) KernelMetrics {
	return KernelMetrics{
		CheckpointsBasic:  r.Counter(KernelCheckpointsBasic),
		CheckpointsForced: r.Counter(KernelCheckpointsForced),
		Deliveries:        r.Counter(KernelDeliveries),
		Rollbacks:         r.Counter(KernelRollbacks),
		PiggybackEntries:  r.Counter(KernelPiggybackEntries),
		PiggybackFull:     r.Counter(KernelPiggybackFull),
		PiggybackBytes:    r.Counter(KernelPiggybackBytes),
	}
}

// RuntimeMetrics is the live engine's handle bundle: sender-pool churn and
// cluster-wide quiesce latency.
type RuntimeMetrics struct {
	QueueDepth   *Gauge
	WorkerSpawns *Counter
	WorkerRetire *Counter
	TimerResets  *Counter
	QuiesceNs    *Histogram

	IngressDepth  *Gauge
	IngressDrains *Counter
	IngressNs     *Histogram

	LinkRetransmits *Counter
	LinkParked      *Gauge
	LinkLost        *Counter
	LinkPartitioned *Gauge

	FenceDepth  *Gauge
	FenceWaitNs *Histogram

	SessionPurged *Counter
}

// RuntimeMetricsFrom resolves the runtime bundle against a registry.
func RuntimeMetricsFrom(r *Registry) RuntimeMetrics {
	return RuntimeMetrics{
		QueueDepth:   r.Gauge(RuntimeQueueDepth),
		WorkerSpawns: r.Counter(RuntimeWorkerSpawns),
		WorkerRetire: r.Counter(RuntimeWorkerRetire),
		TimerResets:  r.Counter(RuntimeTimerResets),
		QuiesceNs:    r.Histogram(RuntimeQuiesceNs),

		IngressDepth:  r.Gauge(RuntimeIngressDepth),
		IngressDrains: r.Counter(RuntimeIngressDrains),
		IngressNs:     r.Histogram(RuntimeIngressNs),

		LinkRetransmits: r.Counter(RuntimeLinkRetransmits),
		LinkParked:      r.Gauge(RuntimeLinkParked),
		LinkLost:        r.Counter(RuntimeLinkLost),
		LinkPartitioned: r.Gauge(RuntimeLinkPartitioned),

		FenceDepth:  r.Gauge(RuntimeFenceDepth),
		FenceWaitNs: r.Histogram(RuntimeFenceWaitNs),

		SessionPurged: r.Counter(RuntimeSessionPurged),
	}
}

// TransportMetrics is the TCP mesh's handle bundle.
type TransportMetrics struct {
	Batches        *Counter
	FramesPerBatch *Histogram
	FramesSent     *Counter
	FramesDeliv    *Counter
	FramesLost     *Counter
	BytesOut       *Counter
	BytesIn        *Counter
	Reads          *Counter
	Dials          *Counter
	DialFailures   *Counter
	BadFrames      *Counter
}

// TransportMetricsFrom resolves the transport bundle against a registry.
func TransportMetricsFrom(r *Registry) TransportMetrics {
	return TransportMetrics{
		Batches:        r.Counter(TransportBatches),
		FramesPerBatch: r.Histogram(TransportFramesPerBatch),
		FramesSent:     r.Counter(TransportFramesSent),
		FramesDeliv:    r.Counter(TransportFramesDeliv),
		FramesLost:     r.Counter(TransportFramesLost),
		BytesOut:       r.Counter(TransportBytesOut),
		BytesIn:        r.Counter(TransportBytesIn),
		Reads:          r.Counter(TransportReads),
		Dials:          r.Counter(TransportDials),
		DialFailures:   r.Counter(TransportDialFailures),
		BadFrames:      r.Counter(TransportBadFrames),
	}
}

// StoreMetrics is the storage layer's handle bundle, shared by MemStore
// and the log store. The group-commit handles (BatchRecords, CommitNs,
// Compactions, TornTails, LiveRatioPct, DurableLag) are written only by the
// log backend; for MemStore they stay at zero.
type StoreMetrics struct {
	Saves    *Counter
	Deletes  *Counter
	SaveNs   *Histogram
	LoadNs   *Histogram
	Retained *Gauge

	BatchRecords *Histogram
	CommitNs     *Histogram
	Compactions  *Counter
	TornTails    *Counter
	LiveRatioPct *Gauge
	DurableLag   *Gauge
}

// StoreMetricsFrom resolves the storage bundle against a registry.
func StoreMetricsFrom(r *Registry) StoreMetrics {
	return StoreMetrics{
		Saves:    r.Counter(StorageSaves),
		Deletes:  r.Counter(StorageDeletes),
		SaveNs:   r.Histogram(StorageSaveNs),
		LoadNs:   r.Histogram(StorageLoadNs),
		Retained: r.Gauge(StorageRetained),

		BatchRecords: r.Histogram(StorageBatchRecords),
		CommitNs:     r.Histogram(StorageCommitNs),
		Compactions:  r.Counter(StorageCompactions),
		TornTails:    r.Counter(StorageTornTails),
		LiveRatioPct: r.Gauge(StorageLiveRatioPct),
		DurableLag:   r.Gauge(StorageDurableLag),
	}
}

// ChaosMetrics is the fault-injection engine's handle bundle.
type ChaosMetrics struct {
	Crashes          *Counter
	Recoveries       *Counter
	RecoveryNs       *Histogram
	OracleOK         *Counter
	OracleViolations *Counter
	ObsoleteRetained *Gauge
}

// ChaosMetricsFrom resolves the chaos bundle against a registry.
func ChaosMetricsFrom(r *Registry) ChaosMetrics {
	return ChaosMetrics{
		Crashes:          r.Counter(ChaosCrashes),
		Recoveries:       r.Counter(ChaosRecoveries),
		RecoveryNs:       r.Histogram(ChaosRecoveryNs),
		OracleOK:         r.Counter(ChaosOracleOK),
		OracleViolations: r.Counter(ChaosOracleViolations),
		ObsoleteRetained: r.Gauge(ChaosObsoleteRetained),
	}
}

// Instrumentable is implemented by storage backends that accept telemetry
// handles after construction. The engines type-assert their Store against
// it so storage.Store itself stays telemetry-free and third-party stores
// need not care.
type Instrumentable interface {
	SetObs(m StoreMetrics, rec *Recorder, process int)
}
