package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSuiteRunsEveryCase executes every case in the full size sweep for a
// minimal budget, so a broken case body fails the unit suite rather than
// the next person who runs cmd/bench.
func TestSuiteRunsEveryCase(t *testing.T) {
	sizes := DefaultSizes
	if testing.Short() {
		sizes = []int{4, 8}
	}
	cases := Suite(sizes)
	if len(cases) == 0 {
		t.Fatal("empty suite")
	}
	results, err := Run(cases, Options{BenchTime: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cases) {
		t.Fatalf("got %d results for %d cases", len(results), len(cases))
	}
	for _, r := range results {
		if r.Iters < 1 || r.NsPerOp < 0 || r.AllocsPerOp < 0 {
			t.Fatalf("implausible result: %+v", r)
		}
	}
}

// TestSuiteCoversTheHotPaths pins the layer coverage the tentpole promises:
// if someone deletes a path from the suite, this fails before the CI gate's
// "missing case" check ever has to.
func TestSuiteCoversTheHotPaths(t *testing.T) {
	want := []string{
		"vclock/merge", "vclock/merge-delta", "vclock/clone",
		"protocol/fdas-decision", "core/collect", "storage/encode",
		"storage/save-group", "storage/delete-log", "storage/replay",
		"transport/roundtrip",
		"transport/roundtrip-sparse", "runtime/delivery",
		"runtime/delivery-compressed", "sim/run",
	}
	have := map[string]bool{}
	for _, c := range Suite([]int{4}) {
		have[c.Path] = true
	}
	for _, p := range want {
		if !have[p] {
			t.Errorf("suite is missing hot path %q", p)
		}
	}
}

func TestFilter(t *testing.T) {
	results, err := Run(Suite([]int{4}), Options{BenchTime: time.Microsecond, Filter: "vclock"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("filter vclock matched %d cases, want 3", len(results))
	}
	for _, r := range results {
		if !strings.HasPrefix(r.Path, "vclock/") {
			t.Fatalf("filter leaked %q", r.Path)
		}
	}
}

func compareFixture() ([]Case, Doc) {
	cases := []Case{
		{Path: "a", N: 4},
		{Path: "b", N: 4},
		{Path: "c", N: 4, AllocSlack: 2},
	}
	base := Doc{Results: []Result{
		{Path: "a", N: 4, NsPerOp: 100, AllocsPerOp: 1},
		{Path: "b", N: 4, NsPerOp: 200, AllocsPerOp: 0},
		{Path: "c", N: 4, NsPerOp: 5000, AllocsPerOp: 10},
	}}
	return cases, base
}

func TestCompareCleanRun(t *testing.T) {
	cases, base := compareFixture()
	cur := []Result{
		{Path: "a", N: 4, NsPerOp: 110, AllocsPerOp: 1},
		{Path: "b", N: 4, NsPerOp: 190, AllocsPerOp: 0},
		{Path: "c", N: 4, NsPerOp: 9000, AllocsPerOp: 11.5}, // within slack; ns never gated
	}
	if regs := Compare(cases, base, cur); len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}
}

func TestCompareCatchesAllocRegression(t *testing.T) {
	cases, base := compareFixture()
	cur := []Result{
		{Path: "a", N: 4, NsPerOp: 100, AllocsPerOp: 2}, // +1 alloc/op
		{Path: "b", N: 4, NsPerOp: 200, AllocsPerOp: 0},
		{Path: "c", N: 4, NsPerOp: 5000, AllocsPerOp: 10},
	}
	regs := Compare(cases, base, cur)
	if len(regs) != 1 || regs[0].Kind != "allocs/op" || regs[0].Path != "a" {
		t.Fatalf("want one allocs/op regression on a, got %v", regs)
	}
}

func TestCompareCatchesMissingCase(t *testing.T) {
	cases, base := compareFixture()
	cur := []Result{
		{Path: "a", N: 4, NsPerOp: 100, AllocsPerOp: 1},
		{Path: "c", N: 4, NsPerOp: 5000, AllocsPerOp: 10},
	}
	regs := Compare(cases, base, cur)
	if len(regs) != 1 || regs[0].Kind != "missing" || regs[0].Path != "b" {
		t.Fatalf("want one missing regression on b, got %v", regs)
	}
}

func TestCompareIgnoresNewCases(t *testing.T) {
	cases, base := compareFixture()
	cur := []Result{
		{Path: "a", N: 4, NsPerOp: 100, AllocsPerOp: 1},
		{Path: "b", N: 4, NsPerOp: 200, AllocsPerOp: 0},
		{Path: "c", N: 4, NsPerOp: 5000, AllocsPerOp: 10},
		{Path: "new", N: 4, NsPerOp: 1, AllocsPerOp: 99},
	}
	if regs := Compare(cases, base, cur); len(regs) != 0 {
		t.Fatalf("new case flagged: %v", regs)
	}
}

func TestDocRoundTrips(t *testing.T) {
	results, err := Run(Suite([]int{4}), Options{BenchTime: time.Microsecond, Filter: "core"})
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDoc([]int{4}, true, results, time.Second)
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var re Doc
	if err := json.Unmarshal(data, &re); err != nil {
		t.Fatal(err)
	}
	if len(re.Results) != len(doc.Results) || re.GoVersion != doc.GoVersion {
		t.Fatalf("round trip changed the doc: %+v vs %+v", re, doc)
	}
}

func TestFatalfSurfacesAsError(t *testing.T) {
	_, err := Run([]Case{{Path: "boom", N: 1, Fn: func(t *T) { t.Fatalf("kaput %d", 42) }}},
		Options{BenchTime: time.Microsecond})
	if err == nil || !strings.Contains(err.Error(), "kaput 42") {
		t.Fatalf("err = %v, want kaput 42", err)
	}
}

// BenchmarkSuite exposes every harness case to `go test -bench`, so the
// bench smoke test (and anyone profiling) reaches them with the standard
// tooling. One representative size keeps -bench runs bounded.
func BenchmarkSuite(b *testing.B) {
	for _, c := range Suite([]int{8}) {
		b.Run(c.Path+"/n=8", func(b *testing.B) {
			RunForTesting(b, c, b.N)
		})
	}
}
