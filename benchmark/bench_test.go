package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestHistQuantileAndWindows(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %.1f, want %.1f within 1%%", q, got, want)
		}
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	for _, v := range []int64{-5, 0, 63, 64, 65, 1 << 20, 1<<40 - 1, 1 << 40, math.MaxInt64} {
		b := bucketOf(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if lo, hi := bucketBounds(b); v >= 0 && v < 1<<40 && (float64(v) < lo || float64(v) >= hi) {
			t.Errorf("value %d not inside its bucket [%v, %v)", v, lo, hi)
		}
	}

	w := newWindows(2, 3, time.Second)
	w.start = time.Unix(1000, 0)
	w.record(0, w.start.Add(-time.Millisecond), 5)      // ramp-up: dropped
	w.record(0, w.start.Add(100*time.Millisecond), 10)  // window 0
	w.record(1, w.start.Add(999*time.Millisecond), 20)  // window 0, other node
	w.record(1, w.start.Add(2500*time.Millisecond), 30) // window 2
	w.record(0, w.start.Add(3*time.Second), 40)         // after the last window: dropped
	m := w.merged()
	if got := []uint64{m[0].n, m[1].n, m[2].n}; !reflect.DeepEqual(got, []uint64{2, 0, 1}) {
		t.Errorf("samples per window = %v, want [2 0 1]", got)
	}

	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if p50, p90 := percentile(ten, 50), percentile(ten, 90); p50 != 5 || p90 != 9 {
		t.Errorf("percentile(50, 90) = %v, %v, want 5, 9", p50, p90)
	}
}

// TestSpeedAdjustment checks the arithmetic that reports a window at nominal
// machine speed, and which values take it on which kind of workload.
func TestSpeedAdjustment(t *testing.T) {
	measured := func() episodeResult {
		return episodeResult{
			MsgsPerS: []float64{1000, 800}, DeliverP50: []float64{2, 2.5}, CkptP50: []float64{4, 5},
			CPUUsPerMsg: []float64{10, 12.5}, Speed: []float64{1, 0.8},
		}
	}
	// The second window ran on a machine a fifth slower and shows it in every
	// number; at nominal speed the two windows agree.
	busy := measured()
	busy.atNominal(true, 0.5)
	for name, got := range map[string][]float64{
		"msgs_per_s": busy.AdjMsgsPerS, "deliver_p50_ms": busy.AdjDeliverP50,
		"ckpt_p50_ms": busy.AdjCkptP50, "cpu_us_per_msg": busy.AdjCPUUsPerMsg,
	} {
		if math.Abs(got[0]-got[1]) > 1e-9 {
			t.Errorf("closed loop: %s at nominal speed = %v, want both windows equal", name, got)
		}
	}
	if busy.RestSpeed != 0.5 {
		t.Errorf("closed loop: set-up and recoveries at rest scaled by %v, want the speed read beside them, 0.5", busy.RestSpeed)
	}
	// The open loop is paced by timers: only its processor time is adjusted.
	paced := measured()
	paced.atNominal(false, 0.5)
	if !reflect.DeepEqual(paced.AdjMsgsPerS, paced.MsgsPerS) || !reflect.DeepEqual(paced.AdjDeliverP50, paced.DeliverP50) ||
		!reflect.DeepEqual(paced.AdjCkptP50, paced.CkptP50) || paced.RestSpeed != 1 {
		t.Errorf("open loop: rates, latencies, set-up and recoveries must stay as measured: %+v", paced)
	}
	if !reflect.DeepEqual(paced.AdjCPUUsPerMsg, busy.AdjCPUUsPerMsg) {
		t.Errorf("open loop: cpu at nominal speed = %v, want %v", paced.AdjCPUUsPerMsg, busy.AdjCPUUsPerMsg)
	}

	var few, enough hist
	for i := 0; i < minLaps-1; i++ {
		few.add(int64(nominalLap))
	}
	for i := 0; i < minLaps; i++ {
		enough.add(int64(2 * nominalLap))
	}
	if got := speedOf(&few); got != 0 {
		t.Errorf("speed from %d laps = %v, want 0 (too few to say)", few.n, got)
	}
	if got := speedOf(&enough); math.Abs(got-0.5) > 0.01 {
		t.Errorf("laps twice as long as nominal: speed %v, want 0.5", got)
	}
}

// TestSpeedometer runs the speedometer through both of its phases.
func TestSpeedometer(t *testing.T) {
	m, err := startSpeedometer()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // back to back: hundreds of laps
	ws := newWindows(1, 1, time.Second)
	ws.start = time.Now()
	m.load(ws)
	time.Sleep(100 * time.Millisecond) // one every lapEvery: a few dozen
	rest, err := m.stop()
	if err != nil {
		t.Fatal(err)
	}
	under := ws.merged()[0]
	if rest.n < minLaps || under.n < 5 || under.n > 60 {
		t.Fatalf("%d laps at rest in 20 ms, %d under load in 100 ms", rest.n, under.n)
	}
	for name, h := range map[string]*hist{"at rest": rest, "under load": &under} {
		if lap := time.Duration(h.quantile(0.5)); lap < time.Microsecond || lap > 5*time.Millisecond {
			t.Errorf("median lap %s = %v", name, lap)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(w workload, seed int64) (dests, crashes []int) {
		for from := 0; from < w.N; from++ {
			d := w.destinations(seed, 3, from)
			for k := 0; k < 50; k++ {
				to := d.next()
				if to == from || to < 0 || to >= w.N {
					t.Fatalf("%s: p%d drew destination %d", w.Name, from, to)
				}
				dests = append(dests, to)
			}
		}
		return dests, w.crashSchedule(seed, 3, 50)
	}
	for _, w := range workloads {
		d1, c1 := draw(w, 7)
		d2, c2 := draw(w, 7)
		if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		d3, c3 := draw(w, 8)
		if !w.Ring && reflect.DeepEqual(d1, d3) {
			t.Errorf("%s: seeds 7 and 8 gave the same destinations", w.Name)
		}
		if reflect.DeepEqual(c1, c3) {
			t.Errorf("%s: seeds 7 and 8 gave the same crash schedule", w.Name)
		}
	}
}

// TestLostMessagesAreFailures feeds the end-of-episode books one sender's
// open-loop stream under a crash every 100 ms: a message every 2 ms, every
// seventh to p1. A crash explains an undelivered message unless a later
// message of the same pair overtook it, or no crash followed at all.
func TestLostMessagesAreFailures(t *testing.T) {
	ms := func(v int) int64 { return int64(v) * 1e6 }
	var crashes []crashSpan
	for k := 0; k < 5; k++ {
		crashes = append(crashes, crashSpan{ms(50 + 100*k), ms(62 + 100*k)})
	}
	var sent []handOver
	for k := 0; 2*k < 560; k++ { // the last recovery ends at 462 ms
		sent = append(sent, handOver{called: ms(2 * k), returned: ms(2*k) + 4000, to: 1 + k%7})
	}
	at := func(msAt int) int { return msAt / 2 } // sequence number of the message sent then
	cases := []struct {
		name   string
		lost   []int // sequence numbers never delivered
		failed int64
	}{
		{"everything arrived", nil, 0},
		{"mid-episode, later messages of the pair arrived", []int{at(280)}, 1},
		{"the pair's last message before the crash", []int{at(336)}, 0},
		{"the receiver stalled until the crash: all of the pair's later ones lost too", []int{at(280), at(294), at(308), at(322), at(336)}, 0},
		{"handed over while a recovery was under way", []int{at(252)}, 0},
		{"after the last recovery", []int{at(490)}, 1},
		{"three at random", []int{at(70), at(170), at(500)}, 3},
	}
	for _, c := range cases {
		e := &episode{w: workload{MinDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond}}
		e.handed = [][]handOver{sent}
		e.got = [][]uint8{make([]uint8, len(sent))}
		for i := range e.got[0] {
			e.got[0][i] = 1
		}
		for _, seq := range c.lost {
			e.got[0][seq] = 0
		}
		e.closeBooks(crashes)
		if e.failed != c.failed {
			t.Errorf("%s: %d failures, want %d (%v)", c.name, e.failed, c.failed, e.failures)
		}
	}

	// Closed loop: every accepted message must have arrived.
	e := &episode{sent: []int64{5, 5}, recv: []paddedCount{{n: 5}, {n: 3}}}
	e.closeBooks(nil)
	if e.failed != 2 {
		t.Errorf("closed loop: %d failures for 2 undelivered messages", e.failed)
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name)
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		check(d.Name)
		j := bf.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %v, the program %v", i, j, d)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if j.Bound <= 0 || j.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, j.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		check(d.Name)
		j := bf.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %v, the program %v", i, j, d)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// recover [0,100) ── load [10,30)
	//                 └─ rollback [40,90) ── delete [50,60), delete [60,75)
	spans := []span{
		{Kind: spRecover, Start: 0, End: 100},
		{Kind: spLoad, Parent: 1, Start: 10, End: 30},
		{Kind: spRollback, Parent: 1, Start: 40, End: 90},
		{Kind: spDelete, Parent: 3, Start: 50, End: 60},
		{Kind: spDelete, Parent: 3, Start: 60, End: 75},
	}
	self := selfTimes(spans)
	want := map[int][]float64{
		spRecover: {30}, spLoad: {20}, spRollback: {25}, spDelete: {10, 15},
	}
	for kind, w := range want {
		if !reflect.DeepEqual(self[kind], w) {
			t.Errorf("%s self time = %v, want %v", spanNames[kind], self[kind], w)
		}
	}

	// A delivery group is published only when its message is sampled, and
	// its group-local parents are rewritten to positions in the shared list.
	tr := newTracer(1)
	nt := &tr.nodes[0]
	for _, sampled := range []bool{false, true} {
		tok := nt.begin(spForcedCheck)
		nt.end(tok, 1)
		save := nt.begin(spSave)
		nt.end(save, 7)
		nt.closeGroup(42, 0, sampled)
	}
	var names []string
	for _, s := range tr.spans {
		names = append(names, spanNames[s.Kind])
	}
	if want := []string{"msg", "node.deliver", "protocol.forced_check", "storage.save"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("published spans %v, want %v", names, want)
	}
	if p := []int32{tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[3].Parent}; !reflect.DeepEqual(p, []int32{0, 1, 2, 2}) {
		t.Errorf("parents %v, want [0 1 2 2]", p)
	}
	if got := tr.kindHist(spSave).n; got != 2 {
		t.Errorf("save histogram holds %d samples, want 2 (sampled or not)", got)
	}
}

// TestSmoke drives the -smoke shape end to end: an untraced run of the
// in-process crash workload and a traced run of the durable TCP one, which
// between them cross every code path of the harness.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes a few seconds")
	}
	fixProcs()
	out := t.TempDir()
	o := options{Seed: 1, Seconds: 1, Shape: smokeShape, OutDir: out, Log: io.Discard}

	w, _ := workloadByName("crash-recover")
	rep, err := measure(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("crash-recover: %d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	for _, d := range endToEnd {
		if v, ok := rep.Metrics[d.Name]; !ok || v <= 0 || math.IsNaN(v) {
			t.Errorf("crash-recover: end-to-end metric %s = %v", d.Name, v)
		}
	}
	if rep.Samples["recover"] == 0 || rep.Refused == 0 {
		t.Errorf("crash-recover ran %d recoveries and saw %d refusals", rep.Samples["recover"], rep.Refused)
	}

	w, _ = workloadByName("durable-ckpt")
	trep, err := traceRun(w, o, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !trep.correct() {
		t.Fatalf("durable-ckpt traced: %d operations failed: %v", trep.Failed, trep.Failures)
	}
	for _, d := range perLayer {
		if v, ok := trep.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("durable-ckpt: per-layer metric %s = %v (present %v)", d.Name, v, ok)
		}
	}
	for _, n := range []string{"storage.save_ns_p50", "storage.saves", "core.on_checkpoint_ns", "protocol.calls", "transport.encode_ns", "node.deliver_ns", "harness.spans"} {
		if trep.Metrics[n] <= 0 {
			t.Errorf("durable-ckpt: %s = %v, want > 0", n, trep.Metrics[n])
		}
	}
	if fi, err := os.Stat(filepath.Join(out, "trace-durable-ckpt.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
	left, _ := filepath.Glob(filepath.Join(out, "*-*"))
	for _, p := range left {
		if filepath.Base(p) != "trace-durable-ckpt.jsonl" {
			t.Errorf("left behind: %s", p)
		}
	}
}
