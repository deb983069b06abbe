package runtime_test

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// deadDelay is the network delay behind which the tests below queue the
// traffic a session is to cancel, and sessionBound what a session — or the
// first traffic after it — may take: a quarter of it. A frame the session
// cancels costs no wall time whatever its delay, so the delay is long enough
// that a test goroutine the host deschedules for a while still reads as "did
// not wait it out".
const (
	deadDelay    = time.Second
	sessionBound = deadDelay / 4
)

// purgeEvents sums the frames the recorder's session_purge events carry and
// counts the events.
func purgeEvents(rec *obs.Recorder) (events, frames int) {
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvSessionPurge {
			events++
			frames += ev.Msg
		}
	}
	return events, frames
}

// TestSessionCancelsDelayedTraffic queues a burst on every pair behind a long
// network delay and runs a recovery session: the session drops the burst where
// it waits instead of waiting for it to come due, with every frame's
// accounting ended and its buffer back on the freelist, none of it is ever
// delivered, and the pairs it was purged from carry post-session traffic in
// order and with a delay of its own — not clamped behind a dead frame's.
func TestSessionCancelsDelayedTraffic(t *testing.T) {
	const n, perPair = 4, 5
	for _, tcp := range []bool{false, true} {
		for _, compress := range []bool{false, true} {
			for _, restart := range []bool{false, true} {
				name := wireName(tcp) +
					map[bool]string{false: "/full", true: "/compressed"}[compress] +
					map[bool]string{false: "/recover", true: "/restart"}[restart]
				t.Run(name, func(t *testing.T) {
					reg, rec := obs.NewRegistry(), obs.NewRecorder(0)
					c, err := runtime.NewCluster(runtime.Config{
						N: n, TCP: tcp, Compress: compress,
						LocalGC: func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
						Net:     runtime.NetworkOptions{Seed: 17},
						Obs:     obs.Options{Registry: reg, Recorder: rec},
					})
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = c.Close() }()
					// Warm: streams dialled, checkpoints taken, freelists stocked.
					driveRandom(t, c, 30, 5)
					free := c.FreeBuffers()
					if restart {
						if err := c.Crash(n - 1); err != nil {
							t.Fatal(err)
						}
					}

					// The burst: every pair with a live sender, a crashed
					// destination included — it is the session that loses those.
					if err := c.SetNetwork(deadDelay, deadDelay, 0); err != nil {
						t.Fatal(err)
					}
					sendAll := func() (sent int) {
						for k := 0; k < perPair; k++ {
							for from := 0; from < n; from++ {
								if c.Node(from).Down() {
									continue
								}
								for to := 0; to < n; to++ {
									if to == from {
										continue
									}
									if err := c.Node(from).Send(to); err != nil {
										t.Fatalf("p%d→p%d: %v", from, to, err)
									}
									sent++
								}
							}
						}
						return sent
					}
					burst := sendAll()
					if got := c.Queued(); got != burst {
						t.Fatalf("%d frames queued behind the delay, want the burst's %d", got, burst)
					}
					dead := make(map[int]bool, burst)
					lastDead := 0
					evs := rec.Events()
					for _, ev := range evs[len(evs)-burst:] {
						if ev.Kind != obs.EvSend {
							t.Fatalf("the recorder's last %d events are not the burst's sends: %v", burst, ev.Kind)
						}
						dead[ev.Msg] = true
						lastDead = max(lastDead, ev.Msg)
					}

					t0 := time.Now()
					if restart {
						_, err = c.Restart(true)
					} else {
						_, err = c.Recover([]int{0}, true)
					}
					if took := time.Since(t0); err != nil || took > sessionBound {
						t.Fatalf("session: err %v after %v; it must not wait out the %v delay", err, took, deadDelay)
					}
					if c.InTransit() != 0 || c.Queued() != 0 {
						t.Fatalf("after the session %d frames in transit, %d queued", c.InTransit(), c.Queued())
					}
					if got := reg.Gauge(obs.RuntimeQueueDepth).Value(); got != 0 {
						t.Fatalf("runtime.sendpool.queue_depth = %d after the session", got)
					}
					if got := reg.Counter(obs.RuntimeSessionPurged).Value(); got != uint64(burst) {
						t.Fatalf("runtime.session_purged = %d, want the burst's %d", got, burst)
					}
					if events, frames := purgeEvents(rec); events != 1 || frames != burst {
						t.Fatalf("%d session_purge events carrying %d frames, want 1 carrying %d", events, frames, burst)
					}
					// Every buffer the burst drew is back; full vectors have one each.
					want := free
					if !compress {
						want = max(free, burst)
					}
					if got := c.FreeBuffers(); got < want {
						t.Fatalf("%d piggyback buffers on the freelists after the purge, want at least %d", got, want)
					}
					checkOracles(t, c)

					// Post-session traffic on the purged pairs draws its own, short
					// delay. A due-time clamp left at a dead frame's due time would
					// hold it back for the rest of deadDelay.
					if err := c.SetNetwork(time.Millisecond, time.Millisecond, 0); err != nil {
						t.Fatal(err)
					}
					t1 := time.Now()
					sendAll()
					quiesceWithin(t, c, 10*time.Second)
					if took := time.Since(t1); took > sessionBound {
						t.Fatalf("post-session traffic took %v: clamped behind the dead frames' due time", took)
					}
					// The recorder holds each receiver's deliveries in the order it
					// took them, under their wire ids: the send ticks.
					fresh := make(map[[2]int][]int)
					for _, ev := range rec.Events() {
						if ev.Kind != obs.EvDeliver {
							continue
						}
						if dead[ev.Msg] {
							t.Fatalf("p%d delivered pre-session message %d", ev.P, ev.Msg)
						}
						if ev.Msg > lastDead {
							fresh[[2]int{ev.Aux, ev.P}] = append(fresh[[2]int{ev.Aux, ev.P}], ev.Msg)
						}
					}
					for from := 0; from < n; from++ {
						for to := 0; to < n; to++ {
							if got := fresh[[2]int{from, to}]; to != from && (len(got) != perPair || !sort.IntsAreSorted(got)) {
								t.Fatalf("p%d→p%d delivered %v after the session, want its %d messages in send order", from, to, got, perPair)
							}
						}
					}
					checkOracles(t, c)
				})
			}
		}
	}
}

// TestSessionBarrierCatchesStraddlingSend holds p0 inside a send that read
// the cluster's state before a session halted it. The frame carries the old
// epoch and is handed over after the epoch moved; the session's visit to p0 is
// a barrier behind which it finds and cancels the frame, so it neither waits
// for the frame's delay nor leaves it queued to come due after the session.
func TestSessionBarrierCatchesStraddlingSend(t *testing.T) {
	rec := obs.NewRecorder(0)
	var delivered atomic.Int64
	c, err := runtime.NewCluster(runtime.Config{
		N:         3,
		LocalGC:   func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
		NewApp:    func(int) app.App { return app.NewKV() },
		Net:       runtime.NetworkOptions{MinDelay: deadDelay, MaxDelay: deadDelay},
		OnDeliver: func(int, app.App, []byte) { delivered.Add(1) },
		Obs:       obs.Options{Recorder: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	inside, release := make(chan struct{}), make(chan struct{})
	sent, done := make(chan error, 1), make(chan error, 1)
	go func() {
		sent <- c.Node(0).UpdateAndSend(1, func(app.App) { close(inside); <-release }, nil)
	}()
	<-inside
	go func() {
		_, err := c.Recover([]int{2}, true)
		done <- err
	}()
	until(t, "the session has halted the cluster", func() bool {
		return errors.Is(c.Node(1).Update(func(app.App) {}), runtime.ErrHalted)
	})
	select {
	case err := <-done:
		t.Fatalf("the session returned (%v) past a node that is still inside its send", err)
	default:
	}

	t0 := time.Now()
	close(release)
	if err := <-sent; err != nil {
		t.Fatalf("the straddling send: %v; it read the state before the halt and is accepted", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > sessionBound {
		t.Fatalf("the session took %v after the send returned: it waited for the frame's %v delay", took, deadDelay)
	}
	if c.InTransit() != 0 || c.Queued() != 0 {
		t.Fatalf("the straddling frame outlived the session: %d in transit, %d queued", c.InTransit(), c.Queued())
	}
	if events, frames := purgeEvents(rec); events != 1 || frames != 1 {
		t.Fatalf("%d session_purge events carrying %d frames, want 1 carrying the straddling frame", events, frames)
	}
	if got := delivered.Load(); got != 0 {
		t.Fatalf("%d messages delivered, want none", got)
	}
	checkOracles(t, c)
}

// TestSessionsRaceSenders hammers the cancel step: eight senders load the
// queues behind a random delay and 200 sessions purge them, each session
// starting halfway through a burst. Every frame's accounting must end exactly
// once — purged, dropped on the epoch filter or delivered — so the count never
// dips below zero and the last Quiesce returns; compressed kernels check
// per-pair FIFO on every delivery and panic on a frame that overtook, or
// survived, a purge it should not have.
func TestSessionsRaceSenders(t *testing.T) {
	const n, senders, sessions, burst = 4, 8, 200, 160
	for _, tcp := range []bool{false, true} {
		t.Run(wireName(tcp), func(t *testing.T) {
			reg := obs.NewRegistry()
			c, err := runtime.NewCluster(runtime.Config{
				N: n, TCP: tcp, Compress: true,
				LocalGC: func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
				Net:     runtime.NetworkOptions{MaxDelay: 2 * time.Millisecond, Seed: 23},
				Obs:     obs.Options{Registry: reg},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			// budget is the sends the senders may still attempt: the sessions
			// hand it out a burst at a time, so the run's work — and the
			// history the oracles replay — is bounded however it is scheduled.
			var budget atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s)))
					from := s % n
					for {
						select {
						case <-stop:
							return
						default:
						}
						if budget.Add(-1) < 0 {
							budget.Add(1)
							time.Sleep(20 * time.Microsecond)
							continue
						}
						to := (from + 1 + rng.Intn(n-1)) % n
						if err := c.Node(from).Send(to); err != nil && !errors.Is(err, runtime.ErrHalted) {
							t.Errorf("p%d→p%d: %v", from, to, err)
							return
						}
						if rng.Intn(16) == 0 {
							if err := c.Node(from).Checkpoint(); err != nil && !errors.Is(err, runtime.ErrHalted) {
								t.Errorf("p%d checkpoint: %v", from, err)
								return
							}
						}
					}
				}(s)
			}
			for k := 0; k < sessions && !t.Failed(); k++ {
				budget.Store(burst)
				until(t, "the senders are halfway through the burst", func() bool { return budget.Load() <= burst/2 })
				if _, err := c.Recover([]int{k % n}, true); err != nil {
					t.Fatal(err)
				}
				if got := c.InTransit(); got < 0 {
					t.Fatalf("session %d left %d frames in transit: an accounting ended twice", k, got)
				}
			}
			close(stop)
			wg.Wait()
			quiesceWithin(t, c, 10*time.Second)
			if c.InTransit() != 0 || c.Queued() != 0 {
				t.Fatalf("at rest: %d frames in transit, %d queued", c.InTransit(), c.Queued())
			}
			if reg.Counter(obs.RuntimeSessionPurged).Value() == 0 {
				t.Fatal("no session found a frame to purge: the hammer raced nothing")
			}
			checkOracles(t, c)
		})
	}
}
