// Package leakcheck is the goroutine-leak assertion the Close tests of the
// runtime, the transport and the log store share. Only tests import it.
package leakcheck

import (
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
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 2 s after Close, %d before the value under test existed:\n%s",
				runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
