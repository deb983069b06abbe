package ccp

import "math/rand"

// RandomOptions parameterizes RandomScript.
type RandomOptions struct {
	N           int     // number of processes (required, >= 1)
	Ops         int     // number of operations to generate (required)
	PCheckpoint float64 // probability an op is a basic checkpoint (default 0.2)
	PLoss       float64 // probability a sent message is never delivered
}

// RandomScript generates a random but well-formed execution script. Sends
// are buffered in transit and delivered after a random delay (possibly out
// of order, modelling reordering); a PLoss fraction is dropped, modelling
// loss. The generator is deterministic for a given rng state.
func RandomScript(rng *rand.Rand, opts RandomOptions) Script {
	if opts.N < 1 {
		panic("ccp: RandomScript needs N >= 1")
	}
	pc := opts.PCheckpoint
	if pc == 0 {
		pc = 0.2
	}
	var s Script
	s.N = opts.N

	type transit struct {
		msg  int
		from int
	}
	var inflight []transit

	deliverRandom := func() bool {
		if len(inflight) == 0 {
			return false
		}
		k := rng.Intn(len(inflight)) // random pick = reordering
		t := inflight[k]
		inflight = append(inflight[:k], inflight[k+1:]...)
		if rng.Float64() < opts.PLoss {
			return true // dropped: send stays undelivered in the script
		}
		to := rng.Intn(opts.N - 1)
		if to >= t.from {
			to++
		}
		s.Recv(to, t.msg)
		return true
	}

	for i := 0; i < opts.Ops; i++ {
		r := rng.Float64()
		switch {
		case r < pc:
			s.Checkpoint(rng.Intn(opts.N))
		case r < pc+(1-pc)/2 || opts.N == 1:
			if opts.N == 1 {
				s.Checkpoint(0)
				continue
			}
			from := rng.Intn(opts.N)
			inflight = append(inflight, transit{msg: s.Send(from), from: from})
		default:
			if !deliverRandom() {
				s.Checkpoint(rng.Intn(opts.N))
			}
		}
	}
	// Drain what remains in transit so most messages are part of the CCP.
	for len(inflight) > 0 {
		deliverRandom()
	}
	return s
}

// ForceRDT transforms a script into an RD-trackable one by applying the
// FDAS rule (Wang 1997, Algorithm 4 of the paper): on receiving a message
// that carries new causal information after the process has sent a message
// in its current checkpoint interval, a forced checkpoint is taken before
// the receive is processed. The result simulates what an FDAS middleware
// would have produced for the same application-level behaviour. The returned
// script therefore always builds an RDT CCP.
func ForceRDT(in Script) Script {
	var out Script
	out.N = in.N
	dv := make([]DVState, in.N)
	for i := range dv {
		dv[i] = DVState{DV: make([]int, in.N)}
		dv[i].DV[i] = 1
	}
	sendDV := map[int][]int{}
	sender := map[int]int{}
	for _, op := range in.Ops {
		switch op.Kind {
		case OpCheckpoint:
			out.Checkpoint(op.P)
			dv[op.P].DV[op.P]++
			dv[op.P].Sent = false
		case OpSend:
			m := out.Send(op.P)
			if m != op.Msg {
				panic("ccp: ForceRDT send renumbering")
			}
			cp := make([]int, in.N)
			copy(cp, dv[op.P].DV)
			sendDV[op.Msg] = cp
			sender[op.Msg] = op.P
			dv[op.P].Sent = true
		case OpRecv:
			p := op.P
			mdv := sendDV[op.Msg]
			newInfo := false
			for j, v := range mdv {
				if v > dv[p].DV[j] {
					newInfo = true
					break
				}
			}
			if newInfo && dv[p].Sent {
				out.Checkpoint(p) // forced checkpoint before the receive
				dv[p].DV[p]++
				dv[p].Sent = false
			}
			out.Recv(p, op.Msg)
			for j, v := range mdv {
				if v > dv[p].DV[j] {
					dv[p].DV[j] = v
				}
			}
		}
	}
	return out
}

// DVState is the per-process tracking state used by ForceRDT: the running
// dependency vector and whether a message was sent in the current interval.
type DVState struct {
	DV   []int
	Sent bool
}
