package runtime_test

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/runtime"
)

// goroutinesSettle fails the test unless the process's goroutine count is
// back at (or below) base — its value before the cluster under test was
// built — within 2 s. Call it after Close: sender-pool workers, retry
// timers, redial loops and mesh readers must all have let go by then.
func goroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:goruntime.Stack(buf, true)]
			t.Fatalf("%d goroutines 2 s after Close, %d before the cluster existed:\n%s",
				goruntime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoGoroutineLeakAfterClose guards the two shutdowns that leave work
// behind them: an in-process cluster closed with delayed sends still queued
// in the sender pool (its workers deliver what is due and retire on their
// own), and a TCP cluster closed during an open partition with frames
// parked behind long retry timers.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	t.Run("in-process, delayed sends queued", func(t *testing.T) {
		base := goruntime.NumGoroutine()
		c := lgcCluster(t, 4, runtime.NetworkOptions{
			MinDelay: 100 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: 5,
		})
		for k := 0; k < 40; k++ {
			if err := c.Node(k % 4).Send((k + 1) % 4); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		goroutinesSettle(t, base)
	})
	t.Run("tcp, closed during an open partition", func(t *testing.T) {
		base := goruntime.NumGoroutine()
		c := compressedTCPCluster(t, 4, runtime.LinkOptions{
			RetryBase: 30 * time.Second,
			RetryCap:  time.Minute,
		})
		// Streams exist in both directions before the cut, so Close has live
		// readers and writers to tear down as well as parked frames.
		for k := 0; k < 40; k++ {
			if err := c.Node(k % 4).Send((k + 1) % 4); err != nil {
				t.Fatal(err)
			}
		}
		c.Quiesce()
		if err := c.Partition([][]int{{0, 1}, {2, 3}}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 40; k++ {
			if err := c.Node(k % 4).Send((k + 1) % 4); err != nil {
				t.Fatal(err)
			}
		}
		c.Quiesce() // cross-group frames are parked; their timers hold 30 s+ schedules
		if c.PartitionedPairs() == 0 {
			t.Fatal("no pair is partitioned")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		goroutinesSettle(t, base)
	})
}
