package ccp

import "fmt"

// OpKind enumerates the operations of an execution script.
type OpKind int

const (
	// OpCheckpoint has a process take a basic stable checkpoint.
	OpCheckpoint OpKind = iota + 1
	// OpSend has a process send a message.
	OpSend
	// OpRecv delivers a previously sent message to a process.
	OpRecv
)

// Op is one step of a distributed execution script. Msg numbers messages in
// order of their OpSend appearance, starting at 0; an OpRecv refers to the
// Msg of the matching OpSend.
type Op struct {
	Kind OpKind
	P    int
	Msg  int
}

func (o Op) String() string {
	switch o.Kind {
	case OpCheckpoint:
		return fmt.Sprintf("ckpt(p%d)", o.P)
	case OpSend:
		return fmt.Sprintf("send(p%d, m%d)", o.P, o.Msg)
	case OpRecv:
		return fmt.Sprintf("recv(p%d, m%d)", o.P, o.Msg)
	default:
		return fmt.Sprintf("op(%d)", int(o.Kind))
	}
}

// Script is a total-order replay of a distributed execution: the same script
// can be fed to the CCP builder (for ground truth) and to the garbage
// collector under test, guaranteeing both observe the identical pattern.
type Script struct {
	N   int
	Ops []Op

	// sends caches the count of OpSend ops. A script assembled from its
	// exported fields (a History() copy, a prefix of one) starts with the
	// cache at zero; Send recounts then, so such a copy can be extended.
	sends int
}

// Checkpoint appends a checkpoint op for process p.
func (s *Script) Checkpoint(p int) { s.Ops = append(s.Ops, Op{Kind: OpCheckpoint, P: p}) }

// Send appends a send op for process p and returns the message number.
func (s *Script) Send(p int) int {
	if s.sends == 0 {
		for _, op := range s.Ops {
			if op.Kind == OpSend {
				s.sends++
			}
		}
	}
	m := s.sends
	s.Ops = append(s.Ops, Op{Kind: OpSend, P: p, Msg: m})
	s.sends++
	return m
}

// Recv appends a receive of message m at process p.
func (s *Script) Recv(p, m int) { s.Ops = append(s.Ops, Op{Kind: OpRecv, P: p, Msg: m}) }

// Message appends an immediate send/receive pair and returns the message
// number.
func (s *Script) Message(from, to int) int {
	m := s.Send(from)
	s.Recv(to, m)
	return m
}

// Validate checks that the script is well-formed: processes in range, sends
// numbered 0,1,2,... in order, receives refer to already-sent messages,
// no duplicate deliveries, and no self-deliveries.
func (s *Script) Validate() error {
	sent := -1
	sender := map[int]int{}
	recved := map[int]bool{}
	for k, op := range s.Ops {
		if op.P < 0 || op.P >= s.N {
			return fmt.Errorf("op %d (%v): process out of range [0,%d)", k, op, s.N)
		}
		switch op.Kind {
		case OpCheckpoint:
		case OpSend:
			if op.Msg != sent+1 {
				return fmt.Errorf("op %d (%v): send numbered %d, want %d", k, op, op.Msg, sent+1)
			}
			sent++
			sender[op.Msg] = op.P
		case OpRecv:
			from, ok := sender[op.Msg]
			if !ok {
				return fmt.Errorf("op %d (%v): receive before send", k, op)
			}
			if recved[op.Msg] {
				return fmt.Errorf("op %d (%v): duplicate delivery", k, op)
			}
			if from == op.P {
				return fmt.Errorf("op %d (%v): self delivery", k, op)
			}
			recved[op.Msg] = true
		default:
			return fmt.Errorf("op %d: unknown kind %d", k, op.Kind)
		}
	}
	return nil
}

// BuildCCP replays the script through a Builder and returns the resulting
// pattern. Script message numbers coincide with builder message IDs.
func (s *Script) BuildCCP() *CCP {
	if err := s.Validate(); err != nil {
		panic("ccp: invalid script: " + err.Error())
	}
	b := NewBuilder(s.N)
	for _, op := range s.Ops {
		switch op.Kind {
		case OpCheckpoint:
			b.Checkpoint(op.P)
		case OpSend:
			if got := b.Send(op.P); got != op.Msg {
				panic(fmt.Sprintf("ccp: script send %d produced builder id %d", op.Msg, got))
			}
		case OpRecv:
			b.Receive(op.P, op.Msg)
		}
	}
	return b.Build()
}

// Truncate cuts each process's history after its cut[p]-th checkpoint
// operation (the op that creates stable index cut[p]); pass a negative cut
// to keep a process's history whole. Sends past the cut disappear and the
// surviving messages are renumbered; a receive survives only if its send
// does. The returned map translates old message numbers to new ones.
//
// Truncation at a consistent recovery line models a rollback: surviving
// in-transit messages become lost messages, which the system model permits.
func Truncate(s Script, cut []int) (Script, map[int]int) {
	if len(cut) != s.N {
		panic(fmt.Sprintf("ccp: Truncate got %d cuts for %d processes", len(cut), s.N))
	}
	var out Script
	out.N = s.N
	ckpts := make([]int, s.N)
	alive := make(map[int]bool)
	remap := make(map[int]int)
	for _, op := range s.Ops {
		if cut[op.P] >= 0 && ckpts[op.P] >= cut[op.P] {
			continue // this process is past its cut; later events are lost
		}
		switch op.Kind {
		case OpCheckpoint:
			out.Checkpoint(op.P)
			ckpts[op.P]++
		case OpSend:
			remap[op.Msg] = out.Send(op.P)
			alive[op.Msg] = true
		case OpRecv:
			if alive[op.Msg] {
				out.Recv(op.P, remap[op.Msg])
			}
		}
	}
	return out, remap
}

// Prefixes returns the CCPs of every prefix of the script (including the
// empty prefix and the full script). Prefix k covers the first k ops. Each
// prefix is a consistent cut by construction, so the sequence models the
// pattern evolving over time.
func (s *Script) Prefixes() []*CCP {
	if err := s.Validate(); err != nil {
		panic("ccp: invalid script: " + err.Error())
	}
	out := make([]*CCP, 0, len(s.Ops)+1)
	b := NewBuilder(s.N)
	out = append(out, b.Build())
	for _, op := range s.Ops {
		switch op.Kind {
		case OpCheckpoint:
			b.Checkpoint(op.P)
		case OpSend:
			b.Send(op.P)
		case OpRecv:
			b.Receive(op.P, op.Msg)
		}
		out = append(out, b.Build())
	}
	return out
}
