package runtime

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/node"
	"repro/internal/vclock"
)

// TestDestQueueOrder is the keyed heap's property test: several senders
// queue frames with zero, equal and random delays, interleaved with pops of
// everything due up to a moving "now", and every pop must come out in the
// order of a reference sort by (due time, enqueue order), carrying the frame
// that was queued under it. At the end every slot is free and zeroed, and the
// slab never outgrew the deepest the queue got.
func TestDestQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q destQueue
		type ref struct {
			at  int64
			seq uint64
			msg int
		}
		var want []ref // queued, not yet popped
		var (
			now, seq  int64
			highWater int
			batch     []pending
		)
		sent := map[int]int{} // msg → from
		popDue := func(upTo int64) {
			sort.Slice(want, func(i, j int) bool {
				if want[i].at != want[j].at {
					return want[i].at < want[j].at
				}
				return want[i].seq < want[j].seq
			})
			due := 0
			for due < len(want) && want[due].at <= upTo {
				due++
			}
			batch = batch[:0]
			for len(q.h) > 0 && q.h[0].at <= upTo {
				batch = q.popTo(batch)
			}
			if len(batch) != due {
				t.Fatalf("seed %d: popped %d frames due by %d, want %d", seed, len(batch), upTo, due)
			}
			for i := range batch {
				p := &batch[i]
				if p.msg != want[i].msg || p.from != sent[p.msg] || p.payload[0] != byte(p.msg) || p.pb.Index != p.msg {
					t.Fatalf("seed %d: pop %d is msg %d from %d, want msg %d from %d",
						seed, i, p.msg, p.from, want[i].msg, sent[want[i].msg])
				}
			}
			want = want[due:]
		}
		for step := 0; step < 2000; step++ {
			if rng.Intn(3) == 0 {
				now += int64(rng.Intn(200))
				popDue(now)
				continue
			}
			var at int64
			switch rng.Intn(3) {
			case 0: // zero delay: due on arrival
			case 1: // everyone's equal delay: ties break on enqueue order
				at = now + 100
			default:
				at = now + 1 + int64(rng.Intn(500))
			}
			seq++
			msg, from := int(seq), rng.Intn(4)
			sent[msg] = from
			d := delivery{msg: msg, pb: node.Piggyback{Index: msg}, payload: []byte{byte(msg)}}
			q.put(from, &d, at)
			want = append(want, ref{at: at, seq: uint64(seq), msg: msg})
			highWater = max(highWater, len(q.h))
		}
		popDue(now + 1000)
		if len(q.h) != 0 || len(want) != 0 {
			t.Fatalf("seed %d: %d keys and %d reference frames left after the final drain", seed, len(q.h), len(want))
		}
		if len(q.free) != len(q.slab) {
			t.Fatalf("seed %d: %d of %d slots free after the final drain", seed, len(q.free), len(q.slab))
		}
		for i := range q.slab {
			if p := &q.slab[i]; p.payload != nil || p.msg != 0 || p.pb.Index != 0 {
				t.Fatalf("seed %d: slot %d still holds msg %d", seed, i, p.msg)
			}
		}
		if len(q.slab) > highWater {
			t.Fatalf("seed %d: slab of %d slots for a high-water depth of %d", seed, len(q.slab), highWater)
		}
	}
}

// TestDestQueueSteadyStateAllocs pins the keyed heap's steady state, in the
// style of TestWindowSteadyStateAllocs: a queue 16 deep takes one frame and
// gives up its earliest per round without allocating — the slab, the key heap
// and the free list are reused in place.
func TestDestQueueSteadyStateAllocs(t *testing.T) {
	var q destQueue
	d := delivery{pb: node.Piggyback{DV: vclock.New(4)}, payload: []byte("x")}
	batch := make([]pending, 0, 1)
	var at int64
	round := func() {
		at++
		q.put(1, &d, at)
		batch = q.popTo(batch[:0])
		clear(batch)
	}
	for i := 0; i < 16; i++ {
		at++
		q.put(0, &d, at)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if got := testing.AllocsPerRun(1000, round); got != 0 {
		t.Fatalf("%v allocs per queued+popped frame, want 0", got)
	}
	if len(q.h) != 16 || len(q.slab) != 17 {
		t.Fatalf("queue holds %d keys over %d slots, want 16 over 17", len(q.h), len(q.slab))
	}
}
