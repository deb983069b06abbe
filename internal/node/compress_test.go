package node_test

import (
	"testing"

	"repro/internal/node"
)

// TestCompressedCostIsChanged pins the tentpole's cost model: after the
// pairs are synced, a message following a single vector change carries
// exactly one entry however large the system is.
func TestCompressedCostIsChanged(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		a, b := kernel(t, 0, n, true), kernel(t, 1, n, true)
		sync := func() {
			pb, err := a.Send(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Deliver(pb); err != nil {
				t.Fatal(err)
			}
		}
		sync() // first message: full set of non-zero entries
		for i := 0; i < 10; i++ {
			if _, err := a.Checkpoint(true); err != nil {
				t.Fatal(err)
			}
			before := a.PiggybackEntries()
			sync()
			if got := a.PiggybackEntries() - before; got != 1 {
				t.Fatalf("n=%d: one change piggybacked %d entries, want 1", n, got)
			}
		}
	}
}

// TestChangeLogTrim drives one pair far past the trim threshold while a
// second destination stays synced at an old position, then checks both
// destinations still receive exactly the right entries — trimming must be
// invisible.
func TestChangeLogTrim(t *testing.T) {
	const n = 3
	a := kernel(t, 0, n, true)
	b := kernel(t, 1, n, true)
	c := kernel(t, 2, n, true)

	deliver := func(to *node.Kernel, pb node.Piggyback) {
		t.Helper()
		if _, err := to.Deliver(pb); err != nil {
			t.Fatal(err)
		}
	}
	send := func(dest int, to *node.Kernel) {
		t.Helper()
		pb, err := a.Send(dest)
		if err != nil {
			t.Fatal(err)
		}
		deliver(to, pb)
	}

	send(2, c) // sync a→c once, pinning an early log position
	// Drive a→b through thousands of changes, far past the trim threshold.
	for i := 0; i < 3000; i++ {
		if _, err := a.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
		send(1, b)
	}
	// The long-quiet destination must still catch up correctly.
	before := a.PiggybackEntries()
	send(2, c)
	if got := a.PiggybackEntries() - before; got != 1 {
		// Only a's own entry changed since the first a→c message.
		t.Fatalf("catch-up message carried %d entries, want 1", got)
	}
	if got, want := c.DVRef()[0], a.DVRef()[0]; got != want {
		t.Fatalf("c's knowledge of p0 = %d, want %d", got, want)
	}
}
