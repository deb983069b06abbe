package rdt_test

import (
	"reflect"
	"testing"
	"time"

	rdt "repro"
)

// TestQuickstart exercises the documented happy path end to end.
func TestQuickstart(t *testing.T) {
	const n = 4
	sys, err := rdt.New(n, rdt.WithProtocol(rdt.FDAS), rdt.WithCollector(rdt.RDTLGC))
	if err != nil {
		t.Fatal(err)
	}
	script := rdt.Workload(rdt.Uniform, rdt.WorkloadOptions{N: n, Ops: 500, Seed: 1})
	if err := sys.Run(script); err != nil {
		t.Fatal(err)
	}
	for i, c := range sys.RetainedCounts() {
		if c < 1 || c > n {
			t.Errorf("p%d retains %d checkpoints; bound is [1, n=%d]", i, c, n)
		}
	}
	if sys.Stats().Sends == 0 {
		t.Error("no messages sent")
	}
	if v, bad := sys.Oracle().FirstRDTViolation(); bad {
		t.Errorf("pattern not RDT: %v", v)
	}
}

// TestProtocolStrings pins the names used in experiment output.
func TestProtocolStrings(t *testing.T) {
	cases := map[string]string{
		rdt.FDAS.String():       "FDAS",
		rdt.FDI.String():        "FDI",
		rdt.CBR.String():        "CBR",
		rdt.BCS.String():        "BCS",
		rdt.NoProtocol.String(): "none",
		rdt.RDTLGC.String():     "RDT-LGC",
		rdt.NoGC.String():       "no-gc",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !rdt.FDAS.RDT() || !rdt.FDI.RDT() || !rdt.CBR.RDT() {
		t.Error("FDAS, FDI, CBR must report RDT")
	}
	if rdt.BCS.RDT() || rdt.NoProtocol.RDT() {
		t.Error("BCS and none must not report RDT")
	}
}

// TestLogStorageOption runs a system on disk-backed stores and closes it. A
// facade system attaches no application, so its checkpoints carry no state
// and the stores count no state bytes.
func TestLogStorageOption(t *testing.T) {
	sys, err := rdt.New(3, rdt.WithStorage(rdt.BackendLog, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := sys.Run(rdt.Workload(rdt.Ring, rdt.WorkloadOptions{N: 3, Ops: 120, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	st := sys.StorageStats(0)
	if st.Live == 0 || st.Saved <= st.Live {
		t.Errorf("log storage stats show no saved or no collected checkpoint: %+v", st)
	}
	if st.LiveBytes != 0 {
		t.Errorf("log storage counts %d state bytes for checkpoints without state", st.LiveBytes)
	}
}

// TestStorageBackendOption runs the same workload on both backends through
// WithStorage and checks the storage views agree: the collector's behavior
// must not depend on which engine holds the stable bytes.
func TestStorageBackendOption(t *testing.T) {
	if _, err := rdt.ParseBackend("bogus"); err == nil {
		t.Error("ParseBackend accepted a bogus name")
	}
	if _, err := rdt.New(3, rdt.WithStorage(rdt.BackendLog, "")); err == nil {
		t.Error("an on-disk backend without a directory must refuse")
	}
	script := rdt.Workload(rdt.Uniform, rdt.WorkloadOptions{N: 3, Ops: 150, Seed: 5})
	var views [][][]int
	if _, err := rdt.ParseBackend("file"); err == nil {
		t.Error("ParseBackend accepted the retired file backend")
	}
	for _, b := range []rdt.Backend{rdt.BackendMem, rdt.BackendLog} {
		sys, err := rdt.New(3, rdt.WithStorage(b, t.TempDir()))
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		defer sys.Close()
		if err := sys.Run(script); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		view := make([][]int, 3)
		for i := range view {
			view[i] = sys.Retained(i)
		}
		views = append(views, view)
	}
	for i := 1; i < len(views); i++ {
		if !reflect.DeepEqual(views[0], views[i]) {
			t.Errorf("backend views diverge: mem %v vs %v", views[0], views[i])
		}
	}
}

// TestRecoveryThroughFacade crashes a process and continues.
func TestRecoveryThroughFacade(t *testing.T) {
	sys, err := rdt.New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(rdt.Workload(rdt.ClientServer, rdt.WorkloadOptions{N: 3, Ops: 150, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Recover([]int{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Line) != 3 {
		t.Fatalf("recovery line %v malformed", rep.Line)
	}
	if err := sys.Run(rdt.Workload(rdt.Uniform, rdt.WorkloadOptions{N: 3, Ops: 50, Seed: 4})); err != nil {
		t.Fatalf("run after recovery: %v", err)
	}
}

// TestFigureAccessors sanity-checks the re-exported paper scenarios.
func TestFigureAccessors(t *testing.T) {
	if s := rdt.Figure1(true); s.N != 3 || len(s.Ops) == 0 {
		t.Error("Figure1 malformed")
	}
	if s := rdt.Figure2(); s.N != 2 {
		t.Error("Figure2 malformed")
	}
	s3, faulty := rdt.Figure3()
	if s3.N != 4 || len(faulty) != 2 {
		t.Error("Figure3 malformed")
	}
	if s := rdt.Figure4(); s.N != 3 {
		t.Error("Figure4 malformed")
	}
	ws := rdt.WorstCase(5)
	if ws.N != 5 {
		t.Error("WorstCase malformed")
	}
}

// TestLiveClusterFacade runs the goroutine runtime through the facade.
func TestLiveClusterFacade(t *testing.T) {
	c, err := rdt.NewCluster(3, rdt.Network{MaxDelay: 100 * time.Microsecond, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		if err := c.Node(round % 3).Send((round + 1) % 3); err != nil {
			t.Fatal(err)
		}
		if round%4 == 0 {
			if err := c.Node(round % 3).Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Quiesce()
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Errorf("live pattern not RDT: %v", v)
	}
	if _, err := c.Recover([]int{0}, true); err != nil {
		t.Fatal(err)
	}
}

// TestUnsupportedLiveCollector checks the facade rejects global collectors
// for live clusters (they need the halt-the-world view).
func TestUnsupportedLiveCollector(t *testing.T) {
	if _, err := rdt.NewCluster(2, rdt.Network{}, rdt.WithCollector(rdt.SyncOptimal)); err == nil {
		t.Fatal("live cluster with SyncOptimal should be rejected")
	}
}
