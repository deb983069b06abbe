// Package workload generates application-level execution scripts for the
// experiments: parameterized communication patterns whose shapes mirror the
// environments the paper motivates (message-passing applications taking
// autonomous basic checkpoints). All generators are deterministic for a
// given seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/ccp"
)

// Kind selects a communication pattern.
type Kind int

const (
	// Uniform sends between uniformly random pairs.
	Uniform Kind = iota + 1
	// Ring sends from each process to its successor, round-robin.
	Ring
	// ClientServer has processes 1..n-1 exchange request/reply pairs with
	// process 0.
	ClientServer
	// Bursty alternates communication-heavy and checkpoint-heavy phases.
	Bursty
	// AllToAll has each process broadcast to every other in rounds.
	AllToAll
)

// String returns the workload name used in experiment output.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Ring:
		return "ring"
	case ClientServer:
		return "client-server"
	case Bursty:
		return "bursty"
	case AllToAll:
		return "all-to-all"
	default:
		return fmt.Sprintf("workload(%d)", int(k))
	}
}

// Kinds lists all workload kinds, for sweeps.
func Kinds() []Kind { return []Kind{Uniform, Ring, ClientServer, Bursty, AllToAll} }

// Options parameterizes a generator.
type Options struct {
	N    int   // processes (>= 2 for communicating workloads)
	Ops  int   // approximate number of operations
	Seed int64 // RNG seed
	// PCheckpoint is the probability an operation is a basic checkpoint
	// (default 0.2). Higher values model shorter checkpoint intervals.
	PCheckpoint float64
}

func (o Options) pc() float64 {
	if o.PCheckpoint == 0 {
		return 0.2
	}
	return o.PCheckpoint
}

// Generate produces a script of the given kind.
func Generate(kind Kind, opts Options) ccp.Script {
	if opts.N < 2 {
		panic("workload: need at least two processes")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	switch kind {
	case Uniform:
		return ccp.RandomScript(rng, ccp.RandomOptions{
			N: opts.N, Ops: opts.Ops, PCheckpoint: opts.pc(),
		})
	case Ring:
		return ring(rng, opts)
	case ClientServer:
		return clientServer(rng, opts)
	case Bursty:
		return bursty(rng, opts)
	case AllToAll:
		return allToAll(rng, opts)
	default:
		panic(fmt.Sprintf("workload: unknown kind %d", int(kind)))
	}
}

// ring passes a token around the ring; processes checkpoint at random
// between hops.
func ring(rng *rand.Rand, o Options) ccp.Script {
	var s ccp.Script
	s.N = o.N
	cur := 0
	for i := 0; i < o.Ops; i++ {
		if rng.Float64() < o.pc() {
			s.Checkpoint(rng.Intn(o.N))
			continue
		}
		next := (cur + 1) % o.N
		s.Message(cur, next)
		cur = next
	}
	return s
}

// clientServer models request/reply traffic against process 0.
func clientServer(rng *rand.Rand, o Options) ccp.Script {
	var s ccp.Script
	s.N = o.N
	for i := 0; i < o.Ops/3; i++ {
		if rng.Float64() < o.pc() {
			s.Checkpoint(rng.Intn(o.N))
			continue
		}
		client := 1 + rng.Intn(o.N-1)
		s.Message(client, 0) // request
		s.Message(0, client) // reply
	}
	return s
}

// bursty alternates phases: a communication burst (no checkpoints) followed
// by a checkpointing lull, the pattern that stresses garbage collection the
// most (dependencies pile up, then every process checkpoints).
func bursty(rng *rand.Rand, o Options) ccp.Script {
	var s ccp.Script
	s.N = o.N
	phase := o.Ops / 8
	if phase < 1 {
		phase = 1
	}
	for len(s.Ops) < o.Ops {
		for i := 0; i < phase; i++ { // burst
			from := rng.Intn(o.N)
			to := rng.Intn(o.N - 1)
			if to >= from {
				to++
			}
			s.Message(from, to)
		}
		for p := 0; p < o.N; p++ { // lull
			s.Checkpoint(p)
		}
	}
	return s
}

// allToAll broadcasts in rounds with a checkpoint wave between rounds; this
// is the worst-case shape of Figure 5 randomized.
func allToAll(rng *rand.Rand, o Options) ccp.Script {
	var s ccp.Script
	s.N = o.N
	for len(s.Ops) < o.Ops {
		src := rng.Intn(o.N)
		for q := 0; q < o.N; q++ {
			if q == src {
				continue
			}
			m := s.Send(src)
			s.Recv(q, m)
		}
		for p := 0; p < o.N; p++ {
			if rng.Float64() < o.pc()*2 {
				s.Checkpoint(p)
			}
		}
	}
	return s
}
