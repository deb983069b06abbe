package history

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ccp"
)

// histPair drives the reference and the implementation side by side: ref is
// the eagerly linearized script, truncated by ccp.Truncate; logs are the
// per-process logs, cut lazily and merged on demand.
type histPair struct {
	t    *testing.T
	rng  *rand.Rand
	ref  ccp.Script
	logs []*Log
	tick uint64
	// transit lists sent, undelivered messages: number in ref, id in logs.
	transit []struct {
		m, from int
		id      uint64
	}
}

func newHistPair(t *testing.T, rng *rand.Rand, n int) *histPair {
	h := &histPair{t: t, rng: rng, ref: ccp.Script{N: n}, logs: make([]*Log, n)}
	for p := range h.logs {
		h.logs[p] = &Log{}
	}
	return h
}

// run appends ops random events: checkpoints, sends, and deliveries of a
// random message in transit (so receives arrive reordered, across phases).
func (h *histPair) run(ops int) {
	n := h.ref.N
	for i := 0; i < ops; i++ {
		p := h.rng.Intn(n)
		h.tick++
		switch r := h.rng.Float64(); {
		case r < 0.2:
			h.ref.Checkpoint(p)
			h.logs[p].Checkpoint(h.tick)
		case r < 0.6 || len(h.transit) == 0:
			m := h.ref.Send(p)
			h.logs[p].Send(h.tick)
			h.transit = append(h.transit, struct {
				m, from int
				id      uint64
			}{m, p, h.tick})
		default:
			k := h.rng.Intn(len(h.transit))
			tr := h.transit[k]
			h.transit = slices.Delete(h.transit, k, k+1)
			to := h.rng.Intn(n - 1)
			if to >= tr.from {
				to++
			}
			h.ref.Recv(to, tr.m)
			h.logs[to].Recv(h.tick, tr.id)
		}
	}
}

// cut truncates both sides at a random cut: each process keeps its history
// whole or is cut after a random one of its checkpoints (0 = everything).
func (h *histPair) cut() {
	cuts := make([]int, h.ref.N)
	for p := range cuts {
		cuts[p] = -1
		if h.rng.Intn(2) == 0 {
			cuts[p] = h.rng.Intn(h.logs[p].ckpts + 1)
		}
	}
	var remap map[int]int
	h.ref, remap = ccp.Truncate(h.ref, cuts)
	for p, k := range cuts {
		if k >= 0 {
			h.logs[p].CutAfterCheckpoint(k)
		}
	}
	// Messages in transit whose send was cut are gone; the rest renumber.
	kept := h.transit[:0]
	for _, tr := range h.transit {
		if m, ok := remap[tr.m]; ok {
			tr.m = m
			kept = append(kept, tr)
		}
	}
	h.transit = kept
}

func (h *histPair) compare(when string) {
	h.t.Helper()
	got := Linearize(h.logs)
	if !slices.Equal(got.Ops, h.ref.Ops) {
		h.t.Fatalf("%s: linearized logs differ from the reference (%d vs %d ops)\ngot  %v\nwant %v",
			when, len(got.Ops), len(h.ref.Ops), got.Ops, h.ref.Ops)
	}
	for p, l := range h.logs {
		if want := (l.n + chunkEvents - 1) / chunkEvents; len(l.chunks) != want {
			h.t.Fatalf("%s: p%d holds %d chunks for %d events, want %d", when, p, len(l.chunks), l.n, want)
		}
	}
}

// TestHistoryMatchesTruncate is the differential property test of the lazy
// history: per-process logs + tail cuts + merge-by-tick must equal
// ccp.Truncate applied to the eager script, op for op — after one
// truncation, after events recorded on top of it, and after a second one.
func TestHistoryMatchesTruncate(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		ops := 20 + rng.Intn(400)
		if seed%12 == 0 {
			ops = 3*chunkEvents + rng.Intn(2*chunkEvents) // cuts that cross chunks
		}
		h := newHistPair(t, rng, n)
		h.run(ops)
		h.compare("before any cut")
		h.cut()
		h.compare("after the first cut")
		h.run(ops / 2)
		h.compare("after events on top of the first cut")
		h.cut()
		h.compare("after the second cut")
		h.run(ops / 2)
		h.compare("after events on top of the second cut")
		if err := h.ref.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCutWorkIndependentOfHistory pins the cost of a cut at the log level:
// dropping the same tail visits the same number of events whether 10^4 or
// 10^6 events precede it.
func TestCutWorkIndependentOfHistory(t *testing.T) {
	visited := func(before int) int {
		var l Log
		tick := uint64(0)
		send := func() { tick++; l.Send(tick) }
		ckpt := func() { tick++; l.Checkpoint(tick) }
		for i := 0; i < before; i++ {
			if i%50 == 0 {
				ckpt()
			} else {
				send()
			}
		}
		ckpt()
		keep, k := l.n, l.ckpts
		for i := 0; i < 3*chunkEvents; i++ {
			send()
		}
		v := l.CutAfterCheckpoint(k)
		if l.n != keep || l.ckpts != k {
			t.Fatalf("cut left %d events, %d checkpoints; want %d, %d", l.n, l.ckpts, keep, k)
		}
		return v
	}
	// Both prefixes end at the same offset inside a chunk, so the tails span
	// the same chunks.
	small, large := visited(10_000), visited(10_000+990_000/chunkEvents*chunkEvents)
	if small != large {
		t.Fatalf("cutting the same tail visited %d events after 10^4, %d after 10^6", small, large)
	}
	if small > 3*chunkEvents+8 {
		t.Fatalf("cut visited %d events to drop %d", small, 3*chunkEvents)
	}
}
