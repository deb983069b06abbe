// Package protocol implements the communication-induced checkpointing
// protocols the paper builds on. A protocol decides, per process, when a
// forced checkpoint must be taken so that the resulting checkpoint and
// communication pattern has the desired property.
//
// Four RDT protocols are provided, in decreasing forced-checkpoint
// aggressiveness (all four ensure rollback-dependency trackability):
//
//   - CBR  — checkpoint-before-receive: a forced checkpoint before every
//     message delivery; the strictest model of Wang's hierarchy.
//   - Russell — no-receive-after-send (Russell 1980): a forced checkpoint
//     before any delivery that follows a send in the current interval.
//   - FDI  — fixed-dependency-interval: the dependency vector may change
//     only at the start of an interval, so a delivery carrying new causal
//     information forces a checkpoint if the process already sent or
//     received a message in the current interval.
//   - FDAS — fixed-dependency-after-send (the protocol of the paper's
//     Algorithm 4): the dependency vector must not change after the first
//     send of an interval, so a delivery carrying new causal information
//     forces a checkpoint only if the process sent a message in the current
//     interval.
//
// Two non-RDT baselines complete the suite:
//
//   - BCS — the index-based protocol of Briatico, Ciuffoletti and
//     Simoncini: a Lamport-style checkpoint index is piggybacked and a
//     delivery with a larger index forces a checkpoint. It avoids useless
//     checkpoints (Z-cycle freedom) but does not ensure RDT.
//   - None — purely basic checkpoints; exhibits the domino effect of
//     Figure 2.
package protocol

import "repro/internal/vclock"

// Piggyback is the control information carried by an application message:
// the sender's dependency vector (used by every RDT protocol and by
// RDT-LGC) and the sender's BCS logical index (used only by BCS; zero
// otherwise). A compressed message carries the changed entries instead of
// a full vector (Sparse set, DV nil): under FIFO channels the receiver's
// vector merged with the entries equals the full vector the sender would
// have piggybacked, so the protocols' decisions are identical — but the
// sparse form lets them run in O(changed) instead of O(n).
type Piggyback struct {
	DV      vclock.DV
	Entries vclock.Delta // changed entries of a compressed piggyback
	Sparse  bool         // Entries, not DV, carry the causal information
	Index   int
}

// NewInfoFor reports whether the piggyback carries causal information the
// local vector lacks — the test at the heart of the FDAS and FDI forced-
// checkpoint decisions. For a sparse piggyback this inspects only the
// changed entries.
func (pb Piggyback) NewInfoFor(local vclock.DV) bool {
	if pb.Sparse {
		return local.NewInfoDelta(pb.Entries)
	}
	return local.NewInfo(pb.DV)
}

// Protocol is the per-process forced-checkpoint decision procedure. A
// Protocol value is owned by a single process and is not safe for
// concurrent use.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// ForcedBeforeDelivery reports whether a forced checkpoint must be
	// taken before delivering a message with piggyback pb, given the
	// process's current dependency vector. pb.DV may alias a buffer the
	// middleware reuses after the delivery completes: implementations
	// must not retain it (copy if protocol state needs it later).
	ForcedBeforeDelivery(local vclock.DV, pb Piggyback) bool
	// OnSend is called when the process sends a message; it returns the
	// protocol-specific index to piggyback.
	OnSend() int
	// OnDeliver is called after a message is delivered and merged into the
	// local vector. The same non-retention rule applies to pb.DV.
	OnDeliver(pb Piggyback)
	// OnCheckpoint is called after any checkpoint, basic or forced.
	OnCheckpoint()
	// OnRollback is called when the process rolls back during recovery;
	// implementations reset interval-local state conservatively.
	OnRollback()
}

// RDT reports whether the named protocol guarantees rollback-dependency
// trackability.
func RDT(p Protocol) bool {
	switch p.(type) {
	case *CBR, *FDI, *FDAS, *Russell:
		return true
	default:
		return false
	}
}

// all is the one table of protocols every facade, CLI and experiment table
// builds from, in the facade's order: the RDT protocols first.
var all = [...]func() Protocol{
	func() Protocol { return NewFDAS() },
	func() Protocol { return NewFDI() },
	func() Protocol { return NewCBR() },
	func() Protocol { return NewRussell() },
	func() Protocol { return NewBCS() },
	func() Protocol { return NewNone() },
}

// Names returns every protocol's Name in table order: FDAS, FDI, CBR,
// Russell, BCS, none.
func Names() []string {
	out := make([]string, len(all))
	for i, mk := range all {
		out[i] = mk().Name()
	}
	return out
}

// Factory returns the per-process constructor of the protocol whose Name is
// name, or nil if there is none.
func Factory(name string) func(self int) Protocol {
	for _, mk := range all {
		if mk().Name() == name {
			return func(int) Protocol { return mk() }
		}
	}
	return nil
}

// None takes no forced checkpoints.
type None struct{}

// NewNone returns the no-forced-checkpoints baseline.
func NewNone() *None { return &None{} }

func (*None) Name() string                                   { return "none" }
func (*None) ForcedBeforeDelivery(vclock.DV, Piggyback) bool { return false }
func (*None) OnSend() int                                    { return 0 }
func (*None) OnDeliver(Piggyback)                            {}
func (*None) OnCheckpoint()                                  {}
func (*None) OnRollback()                                    {}

// CBR forces a checkpoint before every message delivery.
type CBR struct{}

// NewCBR returns the checkpoint-before-receive protocol.
func NewCBR() *CBR { return &CBR{} }

func (*CBR) Name() string                                   { return "CBR" }
func (*CBR) ForcedBeforeDelivery(vclock.DV, Piggyback) bool { return true }
func (*CBR) OnSend() int                                    { return 0 }
func (*CBR) OnDeliver(Piggyback)                            {}
func (*CBR) OnCheckpoint()                                  {}
func (*CBR) OnRollback()                                    {}

// FDI forces a checkpoint before a delivery that carries new causal
// information when the current interval already had message activity.
type FDI struct {
	active bool // a message was sent or received in the current interval
}

// NewFDI returns the fixed-dependency-interval protocol.
func NewFDI() *FDI { return &FDI{} }

func (*FDI) Name() string { return "FDI" }

func (p *FDI) ForcedBeforeDelivery(local vclock.DV, pb Piggyback) bool {
	return p.active && pb.NewInfoFor(local)
}

func (p *FDI) OnSend() int {
	p.active = true
	return 0
}

func (p *FDI) OnDeliver(Piggyback) { p.active = true }
func (p *FDI) OnCheckpoint()       { p.active = false }
func (p *FDI) OnRollback()         { p.active = false }

// FDAS forces a checkpoint before a delivery that carries new causal
// information when the process has sent a message in the current interval.
// This is the protocol merged with RDT-LGC in the paper's Algorithm 4; here
// the kernel composes the two (internal/node), and the composition is that
// algorithm. The paper's Algorithm 4 keeps the sent flag but its line 4
// reads only "if forced", which would force a checkpoint on every new
// dependency (FDI-like) rather than implement FDAS as the surrounding text
// states. We read that as a typo: the rule is "forced ∧ sent", and
// TestFDASStateMachine pins it.
type FDAS struct {
	sent bool
}

// NewFDAS returns the fixed-dependency-after-send protocol.
func NewFDAS() *FDAS { return &FDAS{} }

func (*FDAS) Name() string { return "FDAS" }

func (p *FDAS) ForcedBeforeDelivery(local vclock.DV, pb Piggyback) bool {
	return p.sent && pb.NewInfoFor(local)
}

func (p *FDAS) OnSend() int {
	p.sent = true
	return 0
}

func (p *FDAS) OnDeliver(Piggyback) {}
func (p *FDAS) OnCheckpoint()       { p.sent = false }
func (p *FDAS) OnRollback()         { p.sent = false }

// Russell is the classic protocol of Russell (1980), the earliest member of
// Wang's RDT hierarchy implemented here: a forced checkpoint before any
// delivery that follows a send in the same interval, with no new-information
// test at all. Every interval then has all of its receives before all of its
// sends, which makes every zigzag-path hop causal, so the pattern is
// RD-trackable. It forces at least as many checkpoints as FDAS (whose test
// adds the new-information conjunct) and at most as many as CBR.
type Russell struct {
	sent bool
}

// NewRussell returns the no-receive-after-send protocol.
func NewRussell() *Russell { return &Russell{} }

func (*Russell) Name() string { return "Russell" }

func (p *Russell) ForcedBeforeDelivery(vclock.DV, Piggyback) bool { return p.sent }

func (p *Russell) OnSend() int {
	p.sent = true
	return 0
}

func (p *Russell) OnDeliver(Piggyback) {}
func (p *Russell) OnCheckpoint()       { p.sent = false }
func (p *Russell) OnRollback()         { p.sent = false }

// BCS is the index-based protocol: every process maintains a Lamport-style
// checkpoint index, piggybacked on messages; receiving a larger index
// forces a checkpoint, after which the local index adopts the received one.
// Checkpoint indices are monotone along every zigzag path, which rules out
// zigzag cycles (no useless checkpoints) but not non-causal zigzag paths,
// so BCS does not ensure RDT.
type BCS struct {
	index int
}

// NewBCS returns the index-based protocol.
func NewBCS() *BCS { return &BCS{} }

func (*BCS) Name() string { return "BCS" }

func (p *BCS) ForcedBeforeDelivery(_ vclock.DV, pb Piggyback) bool {
	return pb.Index > p.index
}

func (p *BCS) OnSend() int { return p.index }

func (p *BCS) OnDeliver(pb Piggyback) {
	if pb.Index > p.index {
		p.index = pb.Index
	}
}

func (p *BCS) OnCheckpoint() { p.index++ }
func (p *BCS) OnRollback()   {}
