package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// smallGrid is a fast grid for table tests: every table variant exercised,
// cells cheap enough for -race.
func smallGrid(t Table) Grid {
	g := Default(t)
	g.Workloads = []workload.Kind{workload.Uniform, workload.Ring}
	g.Sizes = []int{3, 4}
	g.Seeds = 2
	g.Ops = 200
	return g
}

func TestParseTable(t *testing.T) {
	for _, tab := range []Table{Collectors, Protocols, Rollback} {
		got, err := ParseTable(tab.String())
		if err != nil || got != tab {
			t.Errorf("ParseTable(%q) = %v, %v", tab.String(), got, err)
		}
	}
	if _, err := ParseTable("nope"); err == nil {
		t.Error("ParseTable(nope) should fail")
	}
}

func TestCellsExpansion(t *testing.T) {
	g := smallGrid(Collectors)
	cells := g.Cells()
	want := len(g.Workloads) * len(g.Sizes) * len(g.Collectors)
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
	}
	// Row order is workload-major, then size, then variant — the seed
	// CLI's nesting.
	if cells[0].Workload != workload.Uniform || cells[0].N != 3 || cells[0].Collector != core.NoGC {
		t.Fatalf("first cell = %+v", cells[0])
	}
	last := cells[len(cells)-1]
	if last.Workload != workload.Ring || last.N != 4 {
		t.Fatalf("last cell = %+v", last)
	}

	for _, tab := range []Table{Protocols, Rollback} {
		g := smallGrid(tab)
		cells := g.Cells()
		want := len(g.Workloads) * len(g.Sizes) * len(g.Protocols)
		if len(cells) != want {
			t.Fatalf("%v: got %d cells, want %d", tab, len(cells), want)
		}
		if cells[0].Protocol != g.Protocols[0] {
			t.Fatalf("%v: first variant %q", tab, cells[0].Protocol)
		}
	}
}

func TestCellRunPopulatesTiming(t *testing.T) {
	g := smallGrid(Collectors)
	cell := g.Cells()[1] // RDT-LGC, uniform, n=3
	res, err := cell.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("cell timing not recorded")
	}
	if res.RetainedMean <= 0 || res.CollectRatio <= 0 {
		t.Errorf("suspicious RDT-LGC row: %+v", res)
	}
}

func TestBadCellSurfacesAsError(t *testing.T) {
	g := smallGrid(Collectors)
	g.Sizes = []int{1} // workload.Generate panics below 2 processes
	if _, err := g.Run(); err == nil {
		t.Fatal("n=1 grid should fail, not panic or succeed")
	}

	g = smallGrid(Collectors)
	g.Seeds = 0 // would divide by zero inside every cell
	if _, err := g.Run(); err == nil {
		t.Fatal("Seeds=0 grid should fail up front")
	}
}

func TestWriteTextHeaders(t *testing.T) {
	for tab, want := range map[Table]string{
		Collectors: "workload  n  collector",
		Protocols:  "workload  n  protocol  RDT",
		Rollback:   "workload  n  protocol  mean rolled",
	} {
		var b bytes.Buffer
		if err := WriteText(&b, tab, nil); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(b.String(), want) {
			t.Errorf("%v header = %q, want prefix %q", tab, b.String(), want)
		}
	}
	if err := WriteText(&bytes.Buffer{}, Table(99), nil); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestJSONDocRoundTrips(t *testing.T) {
	g := smallGrid(Protocols)
	g.Workers = 4
	results, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteJSON(&b, g, results, 123*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var doc RunDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if doc.Table != "protocols" || doc.Cells != len(results) || len(doc.Rows) != len(results) {
		t.Fatalf("doc = table %q cells %d rows %d", doc.Table, doc.Cells, len(doc.Rows))
	}
	if doc.WallSecs != 0.123 {
		t.Errorf("wall clock = %v", doc.WallSecs)
	}
	for i, row := range doc.Rows {
		if row.ElapsedSecs <= 0 {
			t.Fatalf("row %d missing per-cell timing", i)
		}
		if row.Basic == nil || row.RDT == nil {
			t.Fatalf("row %d missing protocol columns: %+v", i, row)
		}
		if row.MeanRolled != nil {
			t.Fatalf("row %d leaks rollback columns into protocols table", i)
		}
	}
}

func TestProtocolAxes(t *testing.T) {
	over, roll := OverheadProtocols(), RollbackProtocols()
	if len(over) != 6 || len(roll) != 6 {
		t.Fatalf("protocol axes: %d, %d; want 6, 6", len(over), len(roll))
	}
	for _, names := range [][]string{over, roll} {
		rdtCount := 0
		for _, name := range names {
			pf := protocol.Factory(name)
			if pf == nil || pf(0).Name() != name {
				t.Fatalf("axis name %q builds no protocol of that name", name)
			}
			if protocol.RDT(pf(0)) {
				rdtCount++
			}
		}
		if rdtCount != 4 {
			t.Fatalf("want 4 RDT protocols, got %d", rdtCount)
		}
	}
}
