package rdt

import (
	"net"

	"repro/internal/obs"
	"repro/internal/trace"
)

// MetricsRegistry collects live telemetry — counters, gauges and latency
// histograms — from every layer of an instrumented system: kernel
// checkpoint/delivery/piggyback activity, sender-pool churn, wire traffic,
// stable-store latencies, chaos verdicts. See internal/obs for the metric
// name catalogue.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's values.
type MetricsSnapshot = obs.Snapshot

// FlightRecorder captures the protocol event stream (sends, deliveries,
// checkpoints, rollbacks, collects, crashes, restarts), one shard per
// process: its most recent events, or, on a live cluster, every event.
type FlightRecorder = obs.Recorder

// FlightEvent is one recorded protocol event.
type FlightEvent = obs.Event

// NewMetricsRegistry returns an empty registry ready to attach via
// WithObservability.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewFlightRecorder returns a flight recorder holding the most recent `size`
// events (obs.DefaultRecorderSize when size <= 0), or all of a live cluster's.
func NewFlightRecorder(size int) *FlightRecorder { return obs.NewRecorder(size) }

// WithObservability attaches a metrics registry and/or flight recorder to
// the system under construction. Either may be nil; instrumentation that is
// not attached costs nothing. The same registry may observe several systems
// (their counts aggregate). A live cluster's recorder is its history: it
// keeps every event of that cluster and watches nothing else, and
// NewCluster refuses one in use. A recorder of simulated systems interleaves
// the events of everything it watches.
func WithObservability(reg *MetricsRegistry, rec *FlightRecorder) Option {
	return func(o *options) { o.obs = obs.Options{Registry: reg, Recorder: rec} }
}

// RenderFlight draws the recorder's capture as a space-time diagram (one
// timeline per process, in the style of the paper's figures). Deliveries
// whose send was evicted from the ring are elided, so a wrapped recorder
// still renders.
func RenderFlight(n int, rec *FlightRecorder) string {
	return trace.Render(trace.FromEvents(n, rec.Events()))
}

// ServeDebug starts an HTTP listener on addr exposing /metrics (plain text,
// ?format=json), /trace (flight-recorder JSONL), /debug/vars (expvar) and
// /debug/pprof. It returns the bound listener (addr may use port 0); close
// it to stop serving.
func ServeDebug(addr string, reg *MetricsRegistry, rec *FlightRecorder) (net.Listener, error) {
	return obs.ServeDebug(addr, reg, rec)
}
