package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 7, 16, 200} {
		out, err := Map(workers, items, func(v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndDefaults(t *testing.T) {
	out, err := Map(0, nil, func(v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map over nil = %v, %v; want empty, nil", out, err)
	}
	// workers <= 0 falls back to NumCPU and must still work.
	out, err = Map(-1, []int{1, 2, 3}, func(v int) (int, error) { return v + 1, nil })
	if err != nil || len(out) != 3 || out[2] != 4 {
		t.Fatalf("Map(-1, ...) = %v, %v", out, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 4
	var inFlight, peak atomic.Int64
	items := make([]int, 64)
	_, err := Map(workers, items, func(int) (int, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", p, workers)
	}
}

// TestMapReturnsLowestIndexError pins the determinism contract on failure:
// whichever worker fails first chronologically, the reported error is the
// one a serial run would hit first.
func TestMapReturnsLowestIndexError(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(workers, items, func(v int) (int, error) {
			if v == 7 || v == 23 {
				return 0, fmt.Errorf("boom at %d", v)
			}
			return v, nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom at 7") {
			t.Fatalf("workers=%d: err = %v, want boom at 7", workers, err)
		}
	}
}

// TestMapStopsDispatchAfterError: the two workers' first items both fail, each
// only once the other has started. Any later item can then only be received by
// a worker that has already recorded its error, and the dispatcher, which
// completes that hand-off after the receive, sees the error at its very next
// check: at most one item follows the failing pair, on every schedule.
func TestMapStopsDispatchAfterError(t *testing.T) {
	var ran atomic.Int64
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	sentinel := errors.New("early failure")
	_, err := Map(2, items, func(v int) (int, error) {
		ran.Add(1)
		if v < 2 {
			close(started[v])
			<-started[1-v]
			return 0, sentinel
		}
		return v, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if n := ran.Load(); n > 3 {
		t.Fatalf("pool dispatched %d items; at most one may follow the two that failed", n)
	}
}

func TestMapRecoversPanickingJob(t *testing.T) {
	_, err := Map(3, []int{0, 1, 2}, func(v int) (int, error) {
		if v == 1 {
			panic("poisoned cell")
		}
		return v, nil
	})
	if err == nil || !strings.Contains(err.Error(), "poisoned cell") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
}
