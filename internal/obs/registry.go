package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count. The write path is one atomic add;
// a nil receiver no-ops, which is how instrumentation-off stays free.
type Counter struct {
	v atomic.Uint64
}

// Add bumps the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc bumps the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value reads the current count. Safe on nil (reads zero).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a signed level — queue depth, retained checkpoints — moved by
// deltas and readable at any time. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reads the current level. Safe on nil (reads zero).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. Creation (Counter, Gauge,
// Histogram) takes a mutex; the returned handles are cached by callers at
// construction time, so the measurement paths themselves never touch the
// registry and stay lock-free. All methods are nil-safe: a nil *Registry
// hands out nil handles, whose write methods are no-ops.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// NamedValue is one scalar metric in a snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedHistogram is one histogram in a snapshot: summary statistics plus
// the quantiles the bucket layout supports.
type NamedHistogram struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every metric, sorted by name.
// Concurrent writers keep writing while it is taken; each cell is read
// atomically, so the snapshot is per-cell consistent (the usual contract
// for lock-free metric export).
type Snapshot struct {
	Counters   []NamedValue     `json:"counters"`
	Gauges     []NamedValue     `json:"gauges"`
	Histograms []NamedHistogram `json:"histograms"`
}

// Snapshot exports the registry. Safe on nil (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for k, v := range r.ctrs {
		ctrs[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for name, c := range ctrs {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: int64(c.Value())})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: g.Value()})
	}
	for name, h := range hists {
		hs := h.Snapshot()
		s.Histograms = append(s.Histograms, NamedHistogram{
			Name:  name,
			Count: hs.Count,
			Sum:   hs.Sum,
			Mean:  hs.Mean(),
			P50:   hs.Quantile(0.50),
			P99:   hs.Quantile(0.99),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteText renders a snapshot as aligned plain text, one metric per line,
// for CLI -metrics output.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter  %-34s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge    %-34s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "hist     %-34s count=%d mean=%.0f p50=%.0f p99=%.0f\n",
			h.Name, h.Count, h.Mean, h.P50, h.P99); err != nil {
			return err
		}
	}
	return nil
}

// Counter looks up a counter value by name in a snapshot (zero if absent).
// Test and oracle convenience.
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge looks up a gauge value by name in a snapshot (zero if absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram looks up a histogram summary by name in a snapshot.
func (s Snapshot) Histogram(name string) (NamedHistogram, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return NamedHistogram{}, false
}
