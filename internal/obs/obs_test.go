package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestObsConcurrentRegistry hammers one registry from many writer
// goroutines while a reader snapshots continuously. Run under -race this
// is the data-race proof; the final snapshot also checks nothing was
// lost.
func TestObsConcurrentRegistry(t *testing.T) {
	reg := NewRegistry()
	const (
		writers = 8
		perW    = 10000
	)
	var (
		writersWG sync.WaitGroup
		readerWG  sync.WaitGroup
	)
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // snapshotting reader
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot()
			for _, h := range s.Histograms {
				if h.P50 < 0 || h.P99 < h.P50 {
					t.Errorf("snapshot quantiles inverted: p50=%g p99=%g", h.P50, h.P99)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			c := reg.Counter("test.counter")
			g := reg.Gauge("test.gauge")
			h := reg.Histogram("test.hist")
			for i := 0; i < perW; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i))
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()

	want := uint64(writers * perW)
	s := reg.Snapshot()
	if got := s.Counter("test.counter"); got != int64(want) {
		t.Fatalf("counter lost updates: got %d want %d", got, want)
	}
	if got := s.Gauge("test.gauge"); got != 0 {
		t.Fatalf("gauge should balance to 0, got %d", got)
	}
	h, ok := s.Histogram("test.hist")
	if !ok || h.Count != want {
		t.Fatalf("histogram count = %+v, want %d observations", h, want)
	}
}

// TestObsHistogramQuantiles checks quantile estimates on known
// distributions stay within the bucket layout's factor-of-two resolution.
func TestObsHistogramQuantiles(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		h := &Histogram{}
		for v := int64(1); v <= 100000; v++ {
			h.Observe(v)
		}
		s := h.Snapshot()
		checkWithin(t, "p50", s.Quantile(0.50), 50000, 2)
		checkWithin(t, "p99", s.Quantile(0.99), 99000, 2)
		if got := s.Mean(); math.Abs(got-50000.5) > 0.5 {
			t.Errorf("mean = %g, want 50000.5 (exact: sum and count are exact)", got)
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		// 99 fast ops at ~1000ns, 1 slow at ~1e6ns: p50 must sit in the
		// fast mode, p99+ must reach into the slow mode's decade.
		h := &Histogram{}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 9900; i++ {
			h.Observe(900 + rng.Int63n(200))
		}
		for i := 0; i < 100; i++ {
			h.Observe(1_000_000 + rng.Int63n(100_000))
		}
		s := h.Snapshot()
		checkWithin(t, "p50", s.Quantile(0.50), 1000, 2)
		checkWithin(t, "p999", s.Quantile(0.999), 1_000_000, 2)
	})
	t.Run("exact-powers", func(t *testing.T) {
		// A point mass in one bucket: every quantile lands in that
		// bucket's range.
		h := &Histogram{}
		for i := 0; i < 1000; i++ {
			h.Observe(4096)
		}
		s := h.Snapshot()
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			got := s.Quantile(q)
			if got < 4096 || got > 8192 {
				t.Errorf("q=%g: got %g, want within [4096,8192)", q, got)
			}
		}
	})
	t.Run("empty-and-zero", func(t *testing.T) {
		h := &Histogram{}
		if got := h.Snapshot().Quantile(0.5); got != 0 {
			t.Errorf("empty histogram p50 = %g, want 0", got)
		}
		h.Observe(0)
		h.Observe(-5) // clock-step negatives clamp to the zero bucket
		s := h.Snapshot()
		if s.Count != 2 {
			t.Fatalf("count = %d, want 2", s.Count)
		}
		if got := s.Quantile(0.5); got < 0 || got >= 1 {
			t.Errorf("zero-bucket p50 = %g, want in [0,1)", got)
		}
	})
}

// checkWithin asserts got is within a factor of `factor` of want — the
// bucket layout's guaranteed resolution.
func checkWithin(t *testing.T, name string, got, want, factor float64) {
	t.Helper()
	if got < want/factor || got > want*factor {
		t.Errorf("%s = %g, want within %gx of %g", name, got, factor, want)
	}
}

// TestObsRecorderWraparound fills a small ring past capacity and checks
// eviction count, ordering, and the retained window.
func TestObsRecorderWraparound(t *testing.T) {
	const size, total = 8, 27
	r := NewRecorder(size)
	for i := 0; i < total; i++ {
		r.Record(Event{Kind: EvSend, P: i % 3, Msg: i, T: int64(i + 1)})
	}
	if got := r.Dropped(); got != total-size {
		t.Fatalf("dropped = %d, want %d", got, total-size)
	}
	evs := r.Events()
	if len(evs) != size {
		t.Fatalf("len(events) = %d, want %d", len(evs), size)
	}
	for i, ev := range evs {
		wantMsg := total - size + i
		if ev.Msg != wantMsg {
			t.Errorf("event %d: msg = %d, want %d (oldest-first order)", i, ev.Msg, wantMsg)
		}
		if ev.Seq != uint64(wantMsg) {
			t.Errorf("event %d: seq = %d, want %d", i, ev.Seq, wantMsg)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Errorf("events not consecutive at %d", i)
		}
	}
}

// TestObsRecorderConcurrent drives a recorder from four goroutines, each
// recording as its own process, and reads it while they run (under -race):
// every snapshot is a gap-free Seq run, and once they stop the window is
// exactly the last 64 events and Dropped counts the rest.
func TestObsRecorderConcurrent(t *testing.T) {
	const writers, each, size = 4, 1000, 64
	r := NewRecorder(size)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(Event{Kind: EvDeliver, P: w, Msg: i})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		evs := r.Events()
		if len(evs) > size {
			t.Fatalf("snapshot %d holds %d events, more than the window of %d", snaps, len(evs), size)
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 {
				t.Fatalf("snapshot %d: seq gap at %d: %d then %d", snaps, i, evs[i-1].Seq, evs[i].Seq)
			}
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	evs := r.Events()
	if len(evs) != size {
		t.Fatalf("len = %d, want %d", len(evs), size)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[size-1].Seq != writers*each-1 {
		t.Fatalf("newest event has seq %d, want %d", evs[size-1].Seq, writers*each-1)
	}
	if got := r.Dropped(); got != writers*each-size {
		t.Fatalf("dropped = %d, want %d", got, writers*each-size)
	}
	if held, bound := chunks(r); held > bound+writers {
		t.Fatalf("recorder holds %d chunks, past its bound of %d plus one per writer", held, bound)
	}
}

// chunks returns how many chunks r's shards hold, and the bound the
// Recorder documents: ceil(size/c) + 2·shards + 1.
func chunks(r *Recorder) (held, bound int) {
	tbl := *r.shards.Load()
	for _, s := range tbl {
		s.mu.Lock()
		held += len(s.chunks)
		s.mu.Unlock()
	}
	return held, int(r.size+uint64(r.chunk)-1)/r.chunk + 2*len(tbl) + 1
}

// TestObsRecorderMemoryBound pins the bound the Recorder documents: however
// the events are spread over processes — one busy process, then another, a
// quiet one waking, all at once — a recorder written by one goroutine at a
// time never holds more than ceil(size/c) + 2·shards + 1 chunks, and its
// window is always exactly the last size events.
func TestObsRecorderMemoryBound(t *testing.T) {
	const size = 1000
	r := NewRecorder(size)
	rng := rand.New(rand.NewSource(1))
	var all []int
	for phase := 0; phase < 60; phase++ {
		procs := 1 + rng.Intn(8) // this phase writes to processes [lo, lo+procs)
		lo := rng.Intn(9) - 1
		for i := rng.Intn(3 * size); i >= 0; i-- {
			p := lo + rng.Intn(procs)
			r.Record(Event{Kind: EvSend, P: p, Msg: len(all)})
			all = append(all, len(all))
			if held, bound := chunks(r); held > bound {
				t.Fatalf("phase %d, event %d: %d chunks held, bound %d", phase, len(all), held, bound)
			}
		}
		evs := r.Events()
		want := all[max(0, len(all)-size):]
		if len(evs) != len(want) || r.Len() != len(want) || r.Dropped() != uint64(len(all)-len(want)) {
			t.Fatalf("phase %d: %d events (Len %d, Dropped %d), want the last %d of %d",
				phase, len(evs), r.Len(), r.Dropped(), len(want), len(all))
		}
		for i, ev := range evs {
			if ev.Msg != want[i] || ev.Seq != uint64(want[i]) {
				t.Fatalf("phase %d: event %d is msg %d seq %d, want %d", phase, i, ev.Msg, ev.Seq, want[i])
			}
		}
	}
}

// TestObsRecorderWarmAllocatesNothing: once a bounded recorder has reached
// its working set, recording reuses evicted chunks — no allocation, and no
// chunk added.
func TestObsRecorderWarmAllocatesNothing(t *testing.T) {
	r := NewRecorder(1024)
	i := 0
	record := func() {
		r.Record(Event{Kind: EvSend, P: i % 4, Msg: i})
		i++
	}
	for range 8 * 1024 {
		record()
	}
	held, _ := chunks(r)
	if allocs := testing.AllocsPerRun(4*1024, record); allocs != 0 {
		t.Errorf("recording on a warm recorder allocated %.2f times per event, want 0", allocs)
	}
	if got, _ := chunks(r); got != held {
		t.Errorf("a warm recorder grew from %d to %d chunks", held, got)
	}
}

// TestObsRecorderAttach: a recorder is claimed by one recorded cluster only,
// only while empty, and not shared once claimed; a claimed recorder keeps
// every event.
func TestObsRecorderAttach(t *testing.T) {
	shared := NewRecorder(8)
	if err := shared.Attach(false); err != nil {
		t.Fatal(err)
	}
	if err := shared.Attach(false); err != nil {
		t.Fatalf("a second unrecorded cluster on one recorder: %v", err)
	}
	if err := shared.Attach(true); err == nil {
		t.Fatal("claimed a recorder other clusters record into")
	}
	used := NewRecorder(8)
	used.Record(Event{Kind: EvSend})
	if err := used.Attach(true); err == nil {
		t.Fatal("claimed a recorder that already holds events")
	}
	own := NewRecorder(8)
	if err := own.Attach(true); err != nil {
		t.Fatal(err)
	}
	for _, claim := range []bool{false, true} {
		if err := own.Attach(claim); err == nil {
			t.Fatalf("attached (claim %v) to a claimed recorder", claim)
		}
	}
	for i := 0; i < 100; i++ {
		own.Record(Event{Kind: EvSend, P: i % 3, Msg: i})
	}
	if evs := own.Events(); len(evs) != 100 || own.Dropped() != 0 || evs[99].Msg != 99 {
		t.Fatalf("a claimed recorder of size 8 holds %d of 100 events, dropped %d", len(evs), own.Dropped())
	}
	var none *Recorder
	if err := none.Attach(true); err != nil {
		t.Fatalf("nil recorder: %v", err)
	}
}

// TestObsWriteJSONL checks every exported line is valid JSON in the
// OTLP-ish span shape.
func TestObsWriteJSONL(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: EvSend, P: 0, Msg: 1, Aux: 2, Clock: 3, T: 42})
	r.Record(Event{Kind: EvCheckpoint, P: 1, Msg: 0, Aux: 1, Clock: 4, T: 43})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var span struct {
		Name string `json:"name"`
		T    int64  `json:"timeUnixNano"`
		Attr struct {
			Seq     uint64 `json:"seq"`
			Process int    `json:"process"`
			Msg     int    `json:"msg"`
			Aux     int    `json:"aux"`
			Clock   int    `json:"clock"`
		} `json:"attributes"`
	}
	if err := json.Unmarshal(lines[0], &span); err != nil {
		t.Fatalf("line 0 not valid JSON: %v\n%s", err, lines[0])
	}
	if span.Name != "send" || span.T != 42 || span.Attr.Process != 0 ||
		span.Attr.Msg != 1 || span.Attr.Aux != 2 || span.Attr.Clock != 3 {
		t.Errorf("line 0 decoded wrong: %+v", span)
	}
	if err := json.Unmarshal(lines[1], &span); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	if span.Name != "checkpoint" || span.Attr.Seq != 1 {
		t.Errorf("line 1 decoded wrong: %+v", span)
	}
}

// TestObsNilZeroAllocs is the zero-overhead proof in miniature: every
// write-path method on nil handles must allocate nothing. (The allocation
// pins beside the kernel, collector and store hot paths prove the same
// through instrumented code, whose handles are nil there.)
func TestObsNilZeroAllocs(t *testing.T) {
	var (
		c   *Counter
		g   *Gauge
		h   *Histogram
		r   *Recorder
		reg *Registry
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		g.Add(1)
		g.Set(3)
		h.Observe(123)
		r.Record(Event{Kind: EvSend, P: 1, Msg: 2})
		_ = c.Value()
		_ = g.Value()
		_ = h.Count()
		_ = reg.Counter("x")
		_ = reg.Gauge("x")
		_ = reg.Histogram("x")
	})
	if allocs != 0 {
		t.Fatalf("nil-path allocations = %g, want 0", allocs)
	}
	// Bundle constructors on a nil registry yield all-nil bundles.
	if m := KernelMetricsFrom(nil); m.Deliveries != nil || m.CheckpointsBasic != nil {
		t.Fatal("KernelMetricsFrom(nil) must be the zero bundle")
	}
	if m := StoreMetricsFrom(nil); m.SaveNs != nil || m.Retained != nil {
		t.Fatal("StoreMetricsFrom(nil) must be the zero bundle")
	}
}
