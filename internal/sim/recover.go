package sim

import (
	"fmt"

	"repro/internal/ccp"
	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/protocol"
)

// RecoveryReport describes the outcome of a recovery session.
type RecoveryReport struct {
	Faulty []int
	// Line is the recovery line: checkpoint index per process;
	// index last_s(i)+1 denotes a volatile component.
	Line []int
	// RolledBack lists the processes that had to roll back (faulty
	// processes and non-faulty processes with orphan states).
	RolledBack []int
	// LostCheckpoints counts stable checkpoints discarded because they
	// were beyond the line.
	LostCheckpoints int
}

// Recover simulates a failure of the faulty processes followed by a
// centralized recovery session (Section 2.4): the manager stops every
// process, computes the recovery line per Lemma 1 from the stored
// dependency vectors, propagates it, and every process rolls back or
// resumes. When globalLI is true the manager also distributes the
// last-interval vector LI, enabling Algorithm 3's Theorem 1 variant (and
// ReleaseStale on non-rolled-back processes); otherwise collectors use the
// causal-knowledge variant.
func (r *Runner) Recover(faulty []int, globalLI bool) (RecoveryReport, error) {
	line, err := gc.ComputeLine(r.View(), faulty)
	if err != nil {
		return RecoveryReport{}, fmt.Errorf("sim: %w", err)
	}
	rep, err := r.ApplyLine(line, globalLI)
	rep.Faulty = append([]int(nil), faulty...)
	return rep, err
}

// ApplyLine rolls the system back to an arbitrary consistent global
// checkpoint — the mechanism behind software error recovery and causal
// distributed breakpoints (the applications of RDT the paper's introduction
// cites): callers compute a line with the recovery-line machinery (Lemma 1,
// or the min/max-consistent calculations of internal/recovery) and apply
// it. Components equal to last_s(i)+1 denote volatile states (no rollback
// for that process). The line must be consistent; the ground-truth mirror
// verifies it and the call fails otherwise.
func (r *Runner) ApplyLine(line []int, globalLI bool) (RecoveryReport, error) {
	if len(line) != r.cfg.N {
		return RecoveryReport{}, fmt.Errorf("sim: line has %d entries, want %d", len(line), r.cfg.N)
	}
	for j, idx := range line {
		if idx < 0 || idx > r.procs[j].LastStable()+1 {
			return RecoveryReport{}, fmt.Errorf("sim: line[%d] = %d out of range", j, idx)
		}
	}
	if oracle := r.Oracle(); !oracle.IsConsistentGlobal(line) {
		return RecoveryReport{}, fmt.Errorf("sim: line %v is not a consistent global checkpoint", line)
	}

	rep := RecoveryReport{Line: line}
	err := node.ApplyLine(r.procs, line, globalLI, func(j, lost int) {
		rep.RolledBack = append(rep.RolledBack, j)
		rep.LostCheckpoints += lost
	})
	if err != nil {
		return rep, err
	}
	// Rebuild the ground-truth mirror as the post-recovery pattern: each
	// process's history is truncated at its line component.
	r.truncateHistory(line)
	r.metrics.Rollbacks += len(rep.RolledBack)
	r.metrics.RolledCkpts += rep.LostCheckpoints
	return rep, nil
}

// truncateHistory rebuilds hist and the mirror with every process cut at
// its recovery-line component: the checkpoint op creating index line[p] is
// the last kept event of p (everything is kept for volatile components).
// Sends whose send event is cut disappear; deliveries survive only if both
// the send survives and the receive event is before the receiver's cut —
// consistency of the line guarantees no surviving receive references a cut
// send. Surviving in-transit messages become lost messages, which the model
// permits.
func (r *Runner) truncateHistory(line []int) {
	cut := make([]int, r.cfg.N) // number of checkpoint ops to keep per process
	for p := 0; p < r.cfg.N; p++ {
		if line[p] > r.procs[p].LastStable() {
			cut[p] = -1 // volatile component: keep everything
		} else {
			cut[p] = line[p]
		}
	}
	out, remap := ccp.Truncate(r.hist, cut)
	// Remap the per-message bookkeeping to the new numbering, dropping cut
	// sends. Delivered messages have no entries any more (deliver recycles
	// the snapshot and deletes the id), so only in-transit ones carry
	// over; the two maps are maintained together, here as in deliver.
	pbs := make(map[int]protocol.Piggyback, len(remap))
	mds := make(map[int]sendMeta, len(remap))
	for old, nw := range remap {
		if pb, ok := r.sendPB[old]; ok {
			pbs[nw] = pb
		}
		if md, ok := r.sendMd[old]; ok {
			mds[nw] = md
		}
	}
	r.sendPB, r.sendMd = pbs, mds
	r.hist = out
	r.mirror = ccp.NewBuilder(r.cfg.N)
	replayInto(r.mirror, out)
}

func replayInto(b *ccp.Builder, s ccp.Script) {
	for _, op := range s.Ops {
		switch op.Kind {
		case ccp.OpCheckpoint:
			b.Checkpoint(op.P)
		case ccp.OpSend:
			b.Send(op.P)
		case ccp.OpRecv:
			b.Receive(op.P, op.Msg)
		}
	}
}
