package runtime_test

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/runtime"
)

// TestDelayedFrameNeverEarly holds the delayed-send heap to the bound it
// keeps: no frame is delivered before its network's MinDelay has passed
// since its send. The upper side is not pinned — a worker waits on a Go
// timer, which an otherwise idle process's netpoller fires in whole
// milliseconds, so a frame drawn at 0.2–1 ms arrives about 1.1 ms after its
// send (EXPERIMENTS.md E42) — because it is wall-clock, not the heap's.
func TestDelayedFrameNeverEarly(t *testing.T) {
	const n, rounds = 4, 50
	const minDelay, maxDelay = 200 * time.Microsecond, time.Millisecond
	var mu sync.Mutex
	var early []time.Duration
	delivered := 0
	c, err := runtime.NewCluster(runtime.Config{
		N:   n,
		Net: runtime.NetworkOptions{MinDelay: minDelay, MaxDelay: maxDelay, Seed: 5},
		OnDeliver: func(_ int, _ app.App, payload []byte) {
			sent := time.Unix(0, int64(binary.LittleEndian.Uint64(payload)))
			d := time.Since(sent)
			mu.Lock()
			delivered++
			if d < minDelay {
				early = append(early, d)
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for r := 0; r < rounds; r++ {
		for from := 0; from < n; from++ {
			payload := binary.LittleEndian.AppendUint64(nil, uint64(time.Now().UnixNano()))
			if err := c.Node(from).SendPayload((from+1+r%(n-1))%n, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if delivered != rounds*n {
		t.Fatalf("%d of %d frames delivered", delivered, rounds*n)
	}
	if len(early) > 0 {
		t.Fatalf("%d frames delivered before MinDelay %v, e.g. after %v", len(early), minDelay, early[0])
	}
}
