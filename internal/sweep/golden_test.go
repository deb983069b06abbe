package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
)

// The golden tables hold every table's numbers fixed across commits, not
// just across worker counts. Each grid below is exactly what the command in
// its comment runs; regenerate a file with that command, from the
// repository root, only when a change is meant to move the numbers:
//
//	go run ./cmd/sweep -table collectors -sizes 3,4 -seeds 2 -ops 300 > internal/sweep/testdata/collectors.golden
//	go run ./cmd/sweep -table protocols -sizes 3,4 -seeds 2 -ops 300 > internal/sweep/testdata/protocols.golden
//	go run ./cmd/sweep -table rollback -sizes 3,4 -seeds 2 -ops 300 > internal/sweep/testdata/rollback.golden
//	go run ./cmd/sweep -table compress -sizes 3,4 -seeds 2 -ops 300 > internal/sweep/testdata/compress.golden
//	go run ./cmd/chaos -sizes 4 -seeds 1 -cycles 2 -ops 300 -partition split,flap,isolate,partition-recovery > internal/sweep/testdata/chaos.golden
func goldenGrid(tab Table) Grid {
	g := Default(tab)
	g.Sizes, g.Seeds, g.Ops = []int{3, 4}, 2, 300
	if tab == Chaos {
		g.Patterns = append(chaos.Patterns(), chaos.PartitionPatterns()...)
		g.Sizes, g.Seeds, g.Cycles = []int{4}, 1, 2
	}
	return g
}

func TestTablesMatchGolden(t *testing.T) {
	for _, tab := range []Table{Collectors, Protocols, Rollback, Compression, Chaos} {
		t.Run(tab.String(), func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", tab.String()+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := render(t, goldenGrid(tab), 2); !bytes.Equal(got, want) {
				t.Fatalf("%s table moved:\n--- golden ---\n%s--- got ---\n%s", tab, want, got)
			}
		})
	}
}
