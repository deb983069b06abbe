package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

func TestParseSizes(t *testing.T) {
	good := map[string][]int{
		"4":       {4},
		"4,8,16":  {4, 8, 16},
		"128":     {128},
		"2,2,2,2": {2, 2, 2, 2},
	}
	for in, want := range good {
		got, err := sweep.ParseSizes(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseSizes(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "4,", ",4", "a", "4,b", "4,,8",
		"0", "1", "4,1", "-4", "+4", " 4", "99999999999999999999999", "4,99999999999999999999999"} {
		if _, err := sweep.ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) should fail", bad)
		}
	}
}

// TestCheckLoad lists the -ops and -pcheckpoint values that cmd/sweep,
// cmd/chaos and cmd/rdtsim refuse with exit 2.
func TestCheckLoad(t *testing.T) {
	for _, ok := range []struct {
		ops int
		pc  float64
	}{{1, 0}, {1, 1}, {3000, 0.2}} {
		if err := sweep.CheckLoad(ok.ops, ok.pc); err != nil {
			t.Errorf("sweep.CheckLoad(ops=%d, pcheckpoint=%g) = %v", ok.ops, ok.pc, err)
		}
	}
	for _, bad := range []struct {
		ops int
		pc  float64
	}{{0, 0.2}, {-5, 0.2}, {10, -1}, {10, 2}, {10, -0.01}, {10, 1.01}, {10, math.NaN()}} {
		if err := sweep.CheckLoad(bad.ops, bad.pc); err == nil {
			t.Errorf("sweep.CheckLoad(ops=%d, pcheckpoint=%g) should fail", bad.ops, bad.pc)
		}
	}
}
