// Package leakcheck holds the goroutine- and descriptor-leak assertions the
// Close tests of the runtime, the transport and the log store share. Only
// tests import it.
package leakcheck

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// Settle fails the test unless the process's goroutine count is back at (or
// below) base — its value before the thing under test was built — within
// 2 s. Call it after Close: whatever the closed value started must have let
// go by then. Tests using it cannot run in parallel with others.
func Settle(t testing.TB, base int) {
	t.Helper()
	SettleWithin(t, base, 2*time.Second)
}

// SettleWithin is Settle with its own deadline, for a value whose Close
// waits for what it started: a short d then tells a Close that stops its
// goroutines from one that leaves them to exit on their own.
func SettleWithin(t testing.TB, base int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines %v after Close, %d before the value under test existed:\n%s",
				runtime.NumGoroutine(), d, base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// FDs returns the number of descriptors the process has open, read from
// /proc/self/fd, and skips the test where that directory does not exist.
// Listing the directory holds one descriptor of its own, counted alike by
// every call, and the first listing sets up the runtime's poller, so a base
// taken with FDs is not disturbed by the first file the value under test
// opens. Tests using it cannot run in parallel with others.
func FDs(t testing.TB) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor count here: %v", err)
	}
	return len(ents)
}

// SettleFDs is Settle for descriptors: it fails the test unless FDs is back
// at (or below) base within 2 s. A socket whose reader is still returning
// closes when the reader lets go, hence the wait.
func SettleFDs(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n := FDs(t); n > base; n = FDs(t) {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open 2 s after Close, %d before the value under test existed", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
