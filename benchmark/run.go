package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
)

// metricDef names one metric; the lists below are the ones BENCHMARK.json
// declares (bench_test.go holds the two in step).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the middleware would see. Every
// workload reports every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"msgs_per_s", "1/s", "higher"},
	{"deliver_p50_ms", "ms", "lower"},
	{"ckpt_p50_ms", "ms", "lower"},
	{"recover_p50_ms", "ms", "lower"},
	{"cpu_us_per_msg", "us", "lower"},
	{"allocs_per_msg", "count", "lower"},
}

// unbounded are end-to-end in nature but do not repeat within a tenth from
// run to run on one machine (see README.md, "Metrics moved out"), so they
// carry no regression bound: they are printed with the untraced run and
// reported among the per-layer metrics under the names on the right.
var unbounded = [][2]string{
	{"deliver_p99_ms", "runtime.deliver_p99_ms"},
	{"ckpt_p99_ms", "runtime.ckpt_p99_ms"},
	{"recover_p90_ms", "runtime.recover_p90_ms"},
	{"retained_max", "core.retained_max"},
	{"peak_rss_mb", "harness.peak_rss_mb"},
	{"heap_live_mb", "harness.heap_live_mb"},
}

// A run times extra set-ups (cluster up, first message on every pair, cluster
// down) besides its episodes' own, so that setup_s is a median of enough
// samples to repeat: at least setupRepsMin, then more while they fit in
// setupBudget, up to setupRepsMax (a 3 ms set-up needs more samples than a
// 50 ms one, and can afford them).
const (
	setupRepsMin = 8
	setupRepsMax = 40
	setupBudget  = 1500 * time.Millisecond
)

// perLayer are the traced run's metrics, named layer.metric.
var perLayer = []metricDef{
	{"runtime.send_call_ns_p50", "ns", "lower"},
	{"runtime.send_call_ns_p99", "ns", "lower"},
	{"runtime.sendpool_queue_depth", "count", "lower"},
	{"runtime.ingress_depth", "count", "lower"},
	{"runtime.msgs_per_drain", "count", "higher"},
	{"runtime.worker_spawns", "count", "lower"},
	{"runtime.timer_resets", "count", "lower"},
	{"runtime.quiesce_ms", "ms", "lower"},
	{"runtime.retransmits", "count", "lower"},
	{"runtime.refused_share", "%", "lower"},
	{"runtime.session_self_ms", "ms", "lower"},
	{"runtime.residual_us", "us", "lower"},
	{"runtime.deliver_p99_ms", "ms", "lower"},
	{"runtime.ckpt_p99_ms", "ms", "lower"},
	{"runtime.recover_p90_ms", "ms", "lower"},
	{"transport.encode_ns", "ns", "lower"},
	{"transport.decode_ns", "ns", "lower"},
	{"transport.bytes_per_msg", "B", "lower"},
	{"transport.frames_per_batch", "count", "higher"},
	{"transport.batches", "count", "lower"},
	{"transport.dials", "count", "lower"},
	{"transport.wire_msgs_per_s", "1/s", "higher"},
	{"node.send_ns", "ns", "lower"},
	{"node.deliver_ns", "ns", "lower"},
	{"node.deliver_batch_ns_per_msg", "ns", "lower"},
	{"node.forced_per_msg", "count", "lower"},
	{"node.piggyback_entries_per_msg", "count", "lower"},
	{"node.coalesced_share", "%", "higher"},
	{"node.allocs_per_deliver", "count", "lower"},
	{"protocol.forced_check_ns", "ns", "lower"},
	{"protocol.calls", "count", "lower"},
	{"core.on_checkpoint_ns", "ns", "lower"},
	{"core.on_newinfo_ns", "ns", "lower"},
	{"core.rollback_ns", "ns", "lower"},
	{"core.release_stale_ns", "ns", "lower"},
	{"core.deletes_issued", "count", "higher"},
	{"core.collected_share", "%", "higher"},
	{"core.retained_mean", "count", "lower"},
	{"core.retained_max", "count", "lower"},
	{"storage.save_ns_p50", "ns", "lower"},
	{"storage.save_ns_p99", "ns", "lower"},
	{"storage.delete_ns_p50", "ns", "lower"},
	{"storage.load_ns_p50", "ns", "lower"},
	{"storage.indices_ns_p50", "ns", "lower"},
	{"storage.saves", "count", "lower"},
	{"storage.deletes", "count", "lower"},
	{"storage.loads", "count", "lower"},
	{"storage.records_per_commit", "count", "higher"},
	{"storage.commit_ns_p50", "ns", "lower"},
	{"storage.compactions", "count", "lower"},
	{"storage.disk_bytes_per_save", "B", "lower"},
	{"storage.open_ms", "ms", "lower"},
	{"harness.late_p99_ms", "ms", "lower"},
	{"harness.trace_overhead_share", "%", "lower"},
	{"harness.windows", "count", "higher"},
	{"harness.samples", "count", "higher"},
	{"harness.clock_ns", "ns", "lower"},
	{"harness.host_speed", "ratio", "higher"},
	{"harness.spans", "count", "higher"},
	{"harness.peak_rss_mb", "MB", "lower"},
	{"harness.heap_live_mb", "MB", "lower"},
}

// options of one run of one workload.
type options struct {
	Seed    int64
	Seconds int   // measured seconds (windows × window length, over the episodes)
	Shape   shape // of a measured episode
	OutDir  string
	Log     io.Writer // progress and the human-readable table
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string
	Metrics   map[string]float64
	Samples   map[string]uint64 // sample counts behind the timing metrics
	Attempted int64
	Failed    int64
	Refused   int64
	Failures  []string
	Wall      time.Duration
}

func (r *report) correct() bool { return r.Failed == 0 }

func (o options) episodes() int {
	per := o.Shape.Window.Seconds() * float64(o.Shape.Windows)
	k := int(math.Round(float64(o.Seconds) / per))
	if k < 1 {
		k = 1
	}
	return k
}

// warmShape is the discarded first episode: the same load, two windows long,
// so the process (heap, GC pacing, page cache, listeners) is warm before the
// first measured episode.
func (o options) warmShape() shape {
	s := o.Shape
	if s.Windows > 2 {
		s.Windows = 2
	}
	return s
}

// verifyPass runs the workload's configuration through the chaos engine with
// a small seeded plan and every oracle on (Lemma-1 recovery line, RDT,
// Theorem-4 safety, the n-bound). The oracles are super-linear in the history
// length, which is why they run here, on ≤ 2k operations, and not on the
// timed episodes.
func verifyPass(w workload, o options) error {
	plan, err := chaos.NewPlan(chaos.PlanOptions{
		N: w.N, Pattern: chaos.Single, Cycles: 2, Ops: 700, Seed: o.Seed,
	})
	if err != nil {
		return err
	}
	var dir string
	var stores []*logstore.LogStore
	if w.Durable {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return err
		}
		if dir, err = os.MkdirTemp(o.OutDir, "verify-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	cfg := chaos.Config{
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:  func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		NewStore: func(self int) (storage.Store, error) {
			if !w.Durable {
				return storage.NewMemStore(), nil
			}
			// Nothing is timed here, so the device flush is skipped altogether.
			ls, err := logstore.Open(filepath.Join(dir, fmt.Sprintf("p%d", self)),
				logstore.Options{Sync: func(*os.File) error { return nil }})
			if err == nil {
				stores = append(stores, ls)
			}
			return ls, err
		},
		Net: runtime.NetworkOptions{
			MinDelay: w.MinDelay, MaxDelay: w.MaxDelay, Seed: mix(o.Seed, -1, -2),
		},
		GlobalLI:    true,
		PCheckpoint: 1 / float64(w.CkptEach),
		Compress:    w.Compress,
		RDT:         true,
		CheckNBound: true,
		TCP:         w.TCP,
	}
	_, err = chaos.Run(cfg, plan)
	for _, ls := range stores {
		if cerr := ls.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// measure is the untraced run: the verify pass, one discarded warm-up
// episode, then the measured episodes. Every timing is taken per window and
// reported as the median over all windows of all measured episodes, so one
// noisy second does not move a percentile; recoveries, too few per window,
// are aggregated per episode and the median episode is reported.
func measure(w workload, o options) (*report, error) {
	start := time.Now()
	rep := &report{Workload: w.Name, Metrics: map[string]float64{}, Samples: map[string]uint64{}}
	if err := verifyPass(w, o); err != nil {
		rep.Failed++
		rep.Failures = append(rep.Failures, "verify pass: "+err.Error())
	}
	rep.Attempted++
	fmt.Fprintf(o.Log, "# %s: verify pass done (%.1fs)\n", w.Name, time.Since(start).Seconds())

	warm, err := runEpisode(w, o.warmShape(), o, 0, false)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.Name, err)
	}
	rep.absorb(&warm)

	var eps []episodeResult
	for k := 1; k <= o.episodes(); k++ {
		goruntime.GC() // every episode starts from a collected heap
		ep, err := runEpisode(w, o.Shape, o, k, false)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.Name, k, err)
		}
		rep.absorb(&ep)
		eps = append(eps, ep)
		fmt.Fprintf(o.Log, "# %s: episode %d/%d: deliver p50 %.3f ms, msgs/s per window %.0f\n",
			w.Name, k, o.episodes(), median(ep.DeliverP50), ep.MsgsPerS)
	}
	only := o.Shape
	only.Windows = 0
	for k, t0 := 0, time.Now(); k < setupRepsMax && (k < setupRepsMin || time.Since(t0) < setupBudget); k++ {
		ep, err := runEpisode(w, only, o, -1-k, false)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", w.Name, k, err)
		}
		rep.absorb(&ep)
		eps = append(eps, ep)
	}
	rep.aggregate(eps)
	rep.Metrics["peak_rss_mb"] = peakRSSMB()
	rep.Wall = time.Since(start)
	return rep, nil
}

// absorb adds an episode's operation counts and failures to the report.
func (r *report) absorb(ep *episodeResult) {
	r.Attempted += ep.Attempted
	r.Failed += ep.Failed
	r.Refused += ep.Refused
	for _, f := range ep.Failures {
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, f)
		}
	}
}

// aggregate folds the measured episodes into the end-to-end metrics.
func (r *report) aggregate(eps []episodeResult) {
	var setup, rate, d50, d99, c50, c99, cpu, allocs, r50, r90, heap []float64
	var speed, rawSetup, rawRate, rawD50, rawC50, rawCPU, rawR50 []float64
	retained := 0
	for i := range eps {
		ep := &eps[i]
		// An episode's set-up and recoveries count when their speed is known:
		// on the open loop it is 1, on the closed loops what the speedometer
		// read beside the recoveries at rest.
		if ep.RestSpeed > 0 {
			setup = append(setup, ep.SetupS*ep.RestSpeed)
			rawSetup = append(rawSetup, ep.SetupS)
		}
		if ep.RestSpeed > 0 && len(ep.RecoverMs) > 0 {
			r50 = append(r50, percentile(ep.RecoverMs, 50)*ep.RestSpeed)
			r90 = append(r90, percentile(ep.RecoverMs, 90))
			rawR50 = append(rawR50, percentile(ep.RecoverMs, 50))
			r.Samples["recover"] += uint64(len(ep.RecoverMs))
		}
		if len(ep.MsgsPerS) == 0 {
			continue // a repetition of set-up and recoveries at rest only
		}
		heap = append(heap, ep.HeapLiveMB)
		rate = append(rate, ep.AdjMsgsPerS...)
		d50 = append(d50, ep.AdjDeliverP50...)
		d99 = append(d99, ep.DeliverP99...)
		c50 = append(c50, ep.AdjCkptP50...)
		c99 = append(c99, ep.CkptP99...)
		cpu = append(cpu, ep.AdjCPUUsPerMsg...)
		allocs = append(allocs, ep.AllocsPerMsg...)
		speed = append(speed, ep.Speed...)
		rawRate = append(rawRate, ep.MsgsPerS...)
		rawD50 = append(rawD50, ep.DeliverP50...)
		rawC50 = append(rawC50, ep.CkptP50...)
		rawCPU = append(rawCPU, ep.CPUUsPerMsg...)
		if ep.RetainedMax > retained {
			retained = ep.RetainedMax
		}
		r.Samples["deliver"] += ep.DeliverSamples
		r.Samples["ckpt"] += ep.CkptSamples
	}
	r.Samples["setup"] = uint64(len(setup))
	r.Samples["windows"] = uint64(len(rate))
	m := r.Metrics
	m["setup_s"] = median(setup)
	m["msgs_per_s"] = median(rate)
	m["deliver_p50_ms"] = median(d50)
	m["deliver_p99_ms"] = median(d99)
	m["ckpt_p50_ms"] = median(c50)
	m["ckpt_p99_ms"] = median(c99)
	m["recover_p50_ms"] = median(r50)
	m["recover_p90_ms"] = median(r90)
	m["cpu_us_per_msg"] = median(cpu)
	m["allocs_per_msg"] = median(allocs)
	m["heap_live_mb"] = median(heap)
	m["retained_max"] = float64(retained)
	// As measured, before the speed adjustment: for the table, and for
	// anyone who wants to undo it.
	m["host_speed"] = median(speed)
	m["raw.setup_s"] = median(rawSetup)
	m["raw.msgs_per_s"] = median(rawRate)
	m["raw.deliver_p50_ms"] = median(rawD50)
	m["raw.ckpt_p50_ms"] = median(rawC50)
	m["raw.cpu_us_per_msg"] = median(rawCPU)
	m["raw.recover_p50_ms"] = median(rawR50)
}

// traceRun is the traced run: traced episodes with the timing wrappers and a
// registry attached, then the isolated drives. refRate is the untraced
// msgs_per_s (at nominal speed, like the traced rate it is held against) the
// tracing overhead is measured against; when it is 0 (the driver's --trace 1
// run stands alone) one untraced episode measures it first.
func traceRun(w workload, o options, refRate float64) (*report, error) {
	start := time.Now()
	rep := &report{Workload: w.Name, Metrics: map[string]float64{}, Samples: map[string]uint64{}}
	traced := o.episodes()
	if refRate == 0 {
		warm, err := runEpisode(w, o.warmShape(), o, 0, false)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.Name, err)
		}
		rep.absorb(&warm)
		goruntime.GC()
		ref, err := runEpisode(w, o.Shape, o, 1, false)
		if err != nil {
			return nil, fmt.Errorf("%s reference episode: %w", w.Name, err)
		}
		rep.absorb(&ref)
		refRate = median(ref.AdjMsgsPerS)
		if traced > 1 {
			traced-- // the reference episode took one episode's share of the time
		}
	}
	var eps []episodeResult
	for k := 0; k < traced; k++ {
		goruntime.GC()
		ep, err := runEpisode(w, o.Shape, o, 100+k, true)
		if err != nil {
			return nil, fmt.Errorf("%s traced episode %d: %w", w.Name, k, err)
		}
		rep.absorb(&ep)
		eps = append(eps, ep)
		fmt.Fprintf(o.Log, "# %s: traced episode %d/%d: %.0f msgs/s, %v\n",
			w.Name, k+1, traced, median(ep.MsgsPerS), ep.Trace)
	}
	if err := rep.layers(w, o, eps, refRate); err != nil {
		return nil, err
	}
	last := eps[len(eps)-1].Trace
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	if err := last.writeJSONL(filepath.Join(o.OutDir, "trace-"+w.Name+".jsonl")); err != nil {
		return nil, err
	}
	rep.Wall = time.Since(start)
	return rep, nil
}

// layers assembles the per-layer metrics: each is computed per traced episode
// and the median episode is reported.
func (r *report) layers(w workload, o options, eps []episodeResult, refRate float64) error {
	clock := clockNs()
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	minusClock := func(ns float64) float64 { return math.Max(ns-clock, 0) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var entriesPerMsg, perDrain, framesPerBatch, deliverP50us float64

	for i := range eps {
		ep := &eps[i]
		ctr, hs := map[string]float64{}, map[string]obs.NamedHistogram{}
		for _, c := range ep.Snapshot.Counters {
			ctr[c.Name] = float64(c.Value)
		}
		for _, h := range ep.Snapshot.Histograms {
			hs[h.Name] = h
		}
		tr := ep.Trace
		self := selfTimes(tr.spans)
		deliveries := ctr[obs.KernelDeliveries]

		add("runtime.send_call_ns_p50", minusClock(ep.SendCallP50))
		add("runtime.send_call_ns_p99", minusClock(ep.SendCallP99))
		add("runtime.sendpool_queue_depth", ep.QueueDepth)
		add("runtime.ingress_depth", ep.IngressDep)
		add("runtime.msgs_per_drain", ratio(deliveries, ctr[obs.RuntimeIngressDrains]))
		add("runtime.worker_spawns", ctr[obs.RuntimeWorkerSpawns])
		add("runtime.timer_resets", ctr[obs.RuntimeTimerResets])
		add("runtime.quiesce_ms", ep.QuiesceMs)
		add("runtime.retransmits", ctr[obs.RuntimeLinkRetransmits])
		add("runtime.refused_share", 100*ratio(float64(ep.Refused), float64(ep.Sends+ep.Refused)))
		add("runtime.session_self_ms", median(self[spRecover])/1e6)

		add("transport.bytes_per_msg", ratio(ctr[obs.TransportBytesOut], ctr[obs.TransportFramesSent]))
		add("transport.frames_per_batch", hs[obs.TransportFramesPerBatch].Mean)
		add("transport.batches", ctr[obs.TransportBatches])
		add("transport.dials", ctr[obs.TransportDials])

		add("node.forced_per_msg", ratio(ctr[obs.KernelCheckpointsForced], deliveries))
		add("node.piggyback_entries_per_msg", ratio(ctr[obs.KernelPiggybackEntries], deliveries))
		add("node.coalesced_share", 100*ratio(ctr[obs.KernelDeliveryCoalesced], deliveries))

		add("protocol.forced_check_ns", minusClock(tr.kindHist(spForcedCheck).quantile(0.5)))
		add("protocol.calls", float64(tr.protocolCalls()))

		add("core.on_checkpoint_ns", minusClock(median(self[spOnCheckpoint])))
		add("core.on_newinfo_ns", minusClock(median(self[spOnNewInfo])))
		add("core.rollback_ns", minusClock(median(self[spRollback])))
		add("core.release_stale_ns", minusClock(median(self[spReleaseStale])))
		add("core.deletes_issued", ctr[obs.StorageDeletes])
		add("core.collected_share", 100*ratio(ctr[obs.StorageDeletes], ctr[obs.StorageSaves]))
		add("core.retained_mean", ep.RetainedMean)

		save := tr.kindHist(spSave)
		add("storage.save_ns_p50", minusClock(save.quantile(0.5)))
		add("storage.save_ns_p99", minusClock(save.quantile(0.99)))
		add("storage.delete_ns_p50", minusClock(tr.kindHist(spDelete).quantile(0.5)))
		load := tr.kindHist(spLoad)
		add("storage.load_ns_p50", minusClock(load.quantile(0.5)))
		add("storage.indices_ns_p50", minusClock(tr.kindHist(spIndices).quantile(0.5)))
		add("storage.saves", ctr[obs.StorageSaves])
		add("storage.deletes", ctr[obs.StorageDeletes])
		add("storage.loads", float64(load.n))
		add("storage.records_per_commit", hs[obs.StorageBatchRecords].Mean)
		add("storage.commit_ns_p50", hs[obs.StorageCommitNs].P50)
		add("storage.compactions", ctr[obs.StorageCompactions])
		add("storage.disk_bytes_per_save", ratio(float64(ep.DiskBytes), ctr[obs.StorageSaves]))
		add("storage.open_ms", ep.OpenMs)

		add("harness.late_p99_ms", ep.LateP99Ms)
		add("harness.trace_overhead_share", 100*(1-ratio(median(ep.AdjMsgsPerS), refRate)))
		add("harness.windows", float64(len(ep.MsgsPerS)))
		add("harness.samples", float64(ep.DeliverSamples))
		add("harness.spans", float64(len(tr.spans)))

		entriesPerMsg += ratio(ctr[obs.KernelPiggybackEntries], deliveries) / float64(len(eps))
		perDrain += ratio(deliveries, ctr[obs.RuntimeIngressDrains]) / float64(len(eps))
		framesPerBatch += hs[obs.TransportFramesPerBatch].Mean / float64(len(eps))
		deliverP50us += median(ep.DeliverP50) * 1e3 / float64(len(eps))
	}
	for name, vs := range per {
		r.Metrics[name] = median(vs)
	}
	r.aggregate(eps)
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	for _, u := range unbounded {
		r.Metrics[u[1]] = r.Metrics[u[0]]
	}
	r.Metrics["harness.host_speed"] = r.Metrics["host_speed"]

	// The isolated drives use the live run's measured shapes: entries per
	// compressed frame, frames per batch, messages per drain.
	round := func(v float64) int { return int(math.Round(v)) }
	tc, err := driveTransport(w, o.Seed, round(entriesPerMsg), round(framesPerBatch), 2*o.Shape.Window)
	if err != nil {
		return fmt.Errorf("%s transport drive: %w", w.Name, err)
	}
	kc, err := driveKernels(w, o.Seed, round(perDrain))
	if err != nil {
		return fmt.Errorf("%s kernel drive: %w", w.Name, err)
	}
	m := r.Metrics
	m["transport.encode_ns"], m["transport.decode_ns"] = tc.EncodeNs, tc.DecodeNs
	m["transport.wire_msgs_per_s"] = tc.WireMsgsPerS
	m["node.send_ns"], m["node.deliver_ns"] = kc.SendNs, kc.DeliverNs
	m["node.deliver_batch_ns_per_msg"] = kc.BatchNsPerMsg
	m["node.allocs_per_deliver"] = kc.AllocsPerDeliver
	m["harness.clock_ns"] = clock
	// What is left of the median delivery once the isolated per-message
	// costs are taken out: queueing, scheduling, the socket and any injected delay.
	m["runtime.residual_us"] = deliverP50us - (kc.SendNs+kc.DeliverNs+tc.EncodeNs+tc.DecodeNs)/1e3
	return nil
}
