package node_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/node"
)

// sortedEntries checks the canonical form every encode promises.
func sortedEntries(t *testing.T, entries []node.Entry) {
	t.Helper()
	for i := 1; i < len(entries); i++ {
		if entries[i-1].K >= entries[i].K {
			t.Fatalf("entries not sorted/unique: %v", entries)
		}
	}
}

// TestLazyEncodeMatchesEager sends the same traffic through a send-time
// encoder (Kernel.Send) and a delivery-time encoder (SendSnapshot +
// EncodeFor, the deterministic engine's path) and demands identical
// entries per message, even when the sender's vector advances between the
// send and the lazy encode — the equivalence the change-log positions
// (Piggyback.Pos) exist to preserve.
func TestLazyEncodeMatchesEager(t *testing.T) {
	const n = 4
	eagerA, eagerB := kernel(t, 0, n, true), kernel(t, 1, n, true)
	lazyA, lazyB := kernel(t, 0, n, true), kernel(t, 1, n, true)

	type pendingMsg struct {
		pb  node.Piggyback
		ord int
	}
	var backlog []pendingMsg // lazy messages sent but not yet delivered
	sent := 0

	advance := func(a *node.Kernel) {
		// Change the sender's vector after the send: checkpoints move the
		// local entry, so a naive delivery-time encode would leak them.
		if _, err := a.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 20; round++ {
		ePb, err := eagerA.Send(1)
		if err != nil {
			t.Fatal(err)
		}
		lPb := lazyA.SendSnapshot()
		backlog = append(backlog, pendingMsg{pb: lPb, ord: sent})
		sent++
		advance(eagerA)
		advance(lazyA)

		// Deliver the eager message now, the lazy backlog in FIFO order.
		if _, err := eagerB.Deliver(ePb); err != nil {
			t.Fatal(err)
		}
		m := backlog[0]
		backlog = backlog[1:]
		entries, ord, err := lazyA.EncodeFor(1, m.ord, m.pb.Pos, m.pb.DV)
		if err != nil {
			t.Fatal(err)
		}
		sortedEntries(t, entries)
		sortedEntries(t, ePb.Entries)
		if len(entries) != len(ePb.Entries) {
			t.Fatalf("round %d: lazy entries %v != eager %v", round, entries, ePb.Entries)
		}
		for i := range entries {
			if entries[i] != ePb.Entries[i] {
				t.Fatalf("round %d: lazy entries %v != eager %v", round, entries, ePb.Entries)
			}
		}
		if _, err := lazyB.Deliver(node.Piggyback{
			Entries: entries, Compressed: true, From: 0, Ord: ord, Index: m.pb.Index,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !eagerB.DV().Equal(lazyB.DV()) {
		t.Fatalf("receivers diverged: eager %v lazy %v", eagerB.DV(), lazyB.DV())
	}
	if eagerA.PiggybackEntries() != lazyA.PiggybackEntries() {
		t.Fatalf("piggyback accounting diverged: eager %d lazy %d",
			eagerA.PiggybackEntries(), lazyA.PiggybackEntries())
	}
	lazyMatchesEagerDenseUniform(t)
}

// lazyMatchesEagerDenseUniform is the same comparison on the traffic that
// takes the send-time encoder's other enumeration: n kernels, seeded
// uniform destinations, messages delivered late in per-pair FIFO order, so
// between two messages of a pair the sender's change log grows by more
// than n and the eager side scans per entry while the lazy side — whose
// snapshot is older than its vector — must replay the log window.
func lazyMatchesEagerDenseUniform(t *testing.T) {
	const n = 8
	eager, lazy := make([]*node.Kernel, n), make([]*node.Kernel, n)
	for i := range eager {
		eager[i], lazy[i] = kernel(t, i, n, true), kernel(t, i, n, true)
	}
	type flight struct {
		from, to int
		ePb, lPb node.Piggyback
		ord      int
	}
	var inFlight []flight
	sent := make([]int, n)
	rng := rand.New(rand.NewSource(8))
	longWindows := 0

	deliver := func(at int) {
		m := inFlight[at]
		inFlight = append(inFlight[:at], inFlight[at+1:]...)
		entries, ord, err := lazy[m.from].EncodeFor(m.to, m.ord, m.lPb.Pos, m.lPb.DV)
		if err != nil {
			t.Fatal(err)
		}
		sortedEntries(t, entries)
		if !slices.Equal(entries, m.ePb.Entries) || ord != m.ePb.Ord {
			t.Fatalf("p%d→p%d: lazy %v (ord %d) != eager %v (ord %d)", m.from, m.to, entries, ord, m.ePb.Entries, m.ePb.Ord)
		}
		if _, err := eager[m.to].Deliver(m.ePb); err != nil {
			t.Fatal(err)
		}
		if _, err := lazy[m.to].Deliver(node.Piggyback{
			Entries: entries, Compressed: true, From: m.from, Ord: ord, Index: m.lPb.Index,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 600; step++ {
		from := rng.Intn(n)
		to := rng.Intn(n - 1)
		if to >= from {
			to++
		}
		if w, synced := eager[from].EncodeWindow(to); synced && w >= n {
			longWindows++
		}
		ePb, err := eager[from].Send(to)
		if err != nil {
			t.Fatal(err)
		}
		inFlight = append(inFlight, flight{from: from, to: to, ePb: ePb, lPb: lazy[from].SendSnapshot(), ord: sent[from]})
		sent[from]++
		// Deliver the oldest message of a random pair: late, out of global
		// order, in pair order.
		for len(inFlight) > 0 && (len(inFlight) > 6 || rng.Intn(2) == 0) {
			pick := inFlight[rng.Intn(len(inFlight))]
			for at, m := range inFlight {
				if m.from == pick.from && m.to == pick.to {
					deliver(at)
					break
				}
			}
		}
	}
	for len(inFlight) > 0 {
		deliver(0)
	}
	if longWindows < 100 {
		t.Fatalf("only %d of 600 sends had a window of at least n; the traffic is not dense", longWindows)
	}
	for i := range eager {
		if !eager[i].DV().Equal(lazy[i].DV()) {
			t.Fatalf("p%d diverged: eager %v lazy %v", i, eager[i].DV(), lazy[i].DV())
		}
		if eager[i].PiggybackEntries() != lazy[i].PiggybackEntries() {
			t.Fatalf("p%d piggyback accounting diverged: eager %d lazy %d",
				i, eager[i].PiggybackEntries(), lazy[i].PiggybackEntries())
		}
	}
}

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
