package main

import (
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync/atomic"
	"time"
)

// The speedometer measures how fast this machine is running, while the
// workload runs. The benchmark's machine is a few processors of a shared
// host, and their speed moves by 10–25 % over minutes (other tenants' cache,
// memory and hypervisor traffic) — slower than any windowing inside a 25 s
// run can average out, and 1:1 into every processor-bound number. So a
// goroutine beside the workload keeps doing one fixed piece of work, a lap,
// and times it: four round trips of 64 bytes over a loopback TCP pair
// (system calls and the kernel's TCP path, which is where the middleware
// spends a third of its time and where the host's interference shows most)
// and a fixed run of arithmetic. A window's processor-bound values are then
// reported at nominal speed: multiplied (times) or divided (rates) by
// nominalLap ÷ the window's median lap. README.md, "Speed adjustment", has
// the measurements this rests on.
//
// The median lap is robust where it has to be: a lap that the scheduler or
// the hypervisor interrupts is an outlier, and the median of the 500 laps of
// a window ignores it.
const (
	lapTrips = 4    // loopback round trips per lap
	lapSpins = 4000 // xorshift steps per lap
	// lapEvery is the pause between laps under load: 500 laps a second cost
	// about 1.5 % of one processor.
	lapEvery = 2 * time.Millisecond
	// nominalLap fixes the scale of the adjusted values: what a lap takes
	// beside the saturated uniform-w1 on the quiet 2-processor VM the bounds
	// were recorded on, so that adjusted ≈ measured there. It is a unit, not a
	// measurement: changing it would rescale every adjusted metric alike.
	nominalLap = 27 * time.Microsecond
	// minLaps is the fewest laps a median is taken from.
	minLaps = 20
)

type speedometer struct {
	a, b net.Conn
	// into is where laps are recorded: nil while the cluster is at rest (laps
	// run back to back and go to rest), the episode's lap windows under load.
	into atomic.Pointer[windows]
	rest hist // owned by the goroutine until stop returns
	quit atomic.Bool
	done chan error
}

// startSpeedometer opens the loopback pair and starts lapping back to back.
func startSpeedometer() (*speedometer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("speedometer: %w", err)
	}
	defer ln.Close()
	s := &speedometer{done: make(chan error, 1)}
	if s.a, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, fmt.Errorf("speedometer: %w", err)
	}
	if s.b, err = ln.Accept(); err != nil {
		s.a.Close()
		return nil, fmt.Errorf("speedometer: %w", err)
	}
	go func() { s.done <- s.run() }()
	return s, nil
}

func (s *speedometer) run() error {
	buf := make([]byte, 64)
	x := uint64(88172645463325252)
	for !s.quit.Load() {
		ws := s.into.Load()
		if ws != nil {
			time.Sleep(lapEvery)
		} else {
			goruntime.Gosched()
		}
		t0 := time.Now()
		for i := 0; i < lapTrips; i++ {
			if _, err := s.a.Write(buf); err != nil {
				return fmt.Errorf("speedometer: %w", err)
			}
			if _, err := io.ReadFull(s.b, buf); err != nil {
				return fmt.Errorf("speedometer: %w", err)
			}
		}
		for i := 0; i < lapSpins; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		buf[0] = byte(x) // keeps the arithmetic alive
		d := time.Since(t0)
		if ws != nil {
			ws.record(0, t0, d)
		} else {
			s.rest.add(int64(d))
		}
	}
	return nil
}

// load switches from back-to-back laps to one lap every lapEvery, recorded
// by window into ws (one row).
func (s *speedometer) load(ws *windows) { s.into.Store(ws) }

// stop ends the lapping and returns the laps taken at rest.
func (s *speedometer) stop() (*hist, error) {
	s.quit.Store(true)
	err := <-s.done
	s.a.Close()
	s.b.Close()
	return &s.rest, err
}

// speedOf is the machine's speed relative to nominal that a set of laps
// shows, or 0 when there are too few of them to say.
func speedOf(laps *hist) float64 {
	if laps.n < minLaps {
		return 0
	}
	return float64(nominalLap) / laps.quantile(0.5)
}
