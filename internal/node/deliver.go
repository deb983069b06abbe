package node

import (
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// This file is the kernel's batch receive path. DeliverBatch processes a
// drain's worth of incoming messages as one kernel invocation and coalesces
// the expensive per-message work — DV merge, compressor change-log notes,
// collector OnNewInfo — across consecutive compressed messages from the
// same sender, while keeping every observable per-message step (FIFO
// verification, forced-checkpoint decision, protocol notification, the
// engine's post hook) in arrival order.
//
// Why coalescing is exact, not approximate:
//
//   - A compressed piggyback's entries are the sender's DV values at encode
//     time, which are non-decreasing per key over successive messages of
//     one pair. Composing a run with vclock.ComposePatch (later message
//     wins on shared keys) therefore equals the entry-wise maximum, and
//     merging the composition into the receiver's vector yields exactly the
//     vector a message-by-message fold would have produced.
//   - The forced-checkpoint predicate of message i must see the vector
//     *after* messages 1..i-1 merged. While a run is pending, that vector
//     is dv ⊔ composed-prefix; virtView materializes it lazily (one O(n)
//     copy per multi-message run, then O(changed) upkeep) and every
//     protocol receives it as its local vector. A forced checkpoint flushes
//     the pending run first, so the checkpoint stores — and the collector's
//     OnCheckpoint observes — the same vector as in sequential delivery,
//     in the same order relative to OnNewInfo (link-then-release per
//     Section 4.5 depends on that order).
//   - The collector sees one OnNewInfo per flush carrying the union of the
//     run's increased indices. For the RDT-LGC collector this is identical
//     to the per-message sequence: between checkpoints UC[self] does not
//     move, so per-message release(j)/link(j) pairs against the same block
//     cancel, leaving exactly the union call's one release and one link
//     (and the same deletions, since refcounts pass through the same
//     minima in both forms).
//   - The compressor's change log is only read at encode time (under the
//     same engine lock that serializes deliveries), and an encode sends an
//     index once however often the window holds it — noting the union of
//     increased indices once per flush covers the same log window with the
//     same set.
//
// The cross-engine differential test (bit-identical histories against the
// sequential simulator) and TestDeliverBatchMatchesSequential are the
// oracles for all of the above.

// PrewarmBatch sizes the batch path's working memory — the virtual vector
// and the composed-run buffers — up front. Engines that drive DeliverBatch
// call it at construction so the first multi-message drains, which land
// mid-measurement on every node, do not pay for lazy allocation; engines
// that deliver message-by-message (the simulator) skip it and the memory
// is never built.
func (k *Kernel) PrewarmBatch() {
	if k.virt == nil {
		k.virt = vclock.New(k.cfg.N)
	}
	if k.pendRun == nil {
		k.pendRun = make(vclock.Delta, 0, 8)
		k.pendBuf = make(vclock.Delta, 0, 8)
	}
}

// DeliverBatch processes a batch of incoming messages in arrival order as
// one kernel invocation, coalescing consecutive same-sender compressed
// piggybacks into a single vector merge. It is behaviorally identical to
// calling Deliver once per message. post, if non-nil, runs after each
// message's delivery completes (forced checkpoint taken, protocol
// notified), with the message's index into pbs — the engine's per-message
// hook for application handlers and history records. Like Deliver, nothing
// invoked here may retain pb vectors or entries past its call.
func (k *Kernel) DeliverBatch(pbs []Piggyback, post func(i int)) error {
	for i := range pbs {
		pb := &pbs[i]
		if !pb.Compressed {
			// Full-vector piggybacks merge O(n) anyway; deliver in place.
			// The flush keeps merge order across senders intact.
			if err := k.flushRun(); err != nil {
				return err
			}
			if _, err := k.Deliver(*pb); err != nil {
				return err
			}
			if post != nil {
				post(i)
			}
			continue
		}
		if k.pendN > 0 && pb.From != k.pendFrom {
			if err := k.flushRun(); err != nil {
				return err
			}
		}
		if err := k.comp.verifyArrival(pb.From, pb.Ord); err != nil {
			// Leave the kernel consistent — everything reported delivered
			// so far is fully applied — before failing loudly.
			if ferr := k.flushRun(); ferr != nil {
				return ferr
			}
			return err
		}
		decision := protocol.Piggyback{Entries: pb.Entries, Sparse: true, Index: pb.Index}
		local := k.dv
		if k.pendN > 0 {
			local = k.virtView()
		}
		if k.proto.ForcedBeforeDelivery(local, decision) {
			if err := k.flushRun(); err != nil {
				return err
			}
			if _, err := k.Checkpoint(false); err != nil {
				return err
			}
		}
		if k.pendN == 0 {
			k.pendFrom = pb.From
			k.pendRun = append(k.pendRun[:0], pb.Entries...)
		} else {
			k.pendBuf = vclock.ComposePatch(k.pendRun, pb.Entries, k.pendBuf[:0])
			k.pendRun, k.pendBuf = k.pendBuf, k.pendRun
			if k.virtOK {
				vclock.Delta(pb.Entries).MaxWith(k.virt)
			}
		}
		k.pendN++
		k.proto.OnDeliver(decision)
		k.cfg.Metrics.Deliveries.Inc()
		if post != nil {
			post(i)
		}
	}
	return k.flushRun()
}

// virtView returns dv ⊔ pending-composed-run: the vector a sequential
// delivery would hold at this point of the batch. Materialized lazily —
// single-message drains (the common idle-cluster shape) never pay the O(n)
// copy — and kept current by MaxWith as the run grows.
func (k *Kernel) virtView() vclock.DV {
	if !k.virtOK {
		if k.virt == nil {
			k.virt = vclock.New(k.cfg.N)
		}
		k.virt.CopyFrom(k.dv)
		k.pendRun.MaxWith(k.virt)
		k.virtOK = true
	}
	return k.virt
}

// flushRun lands the pending composed run: one vector merge, one change-log
// note, one collector OnNewInfo for the whole run. Called before anything
// that must observe the merged vector — a forced or basic checkpoint, a
// full-vector delivery, the end of the batch.
func (k *Kernel) flushRun() error {
	if k.pendN == 0 {
		return nil
	}
	k.cfg.Metrics.DeliveryMerges.Inc()
	k.cfg.Metrics.DeliveryCoalesced.Add(uint64(k.pendN - 1))
	k.pendN = 0
	k.virtOK = false
	k.scratch = k.pendRun.MergeAppend(k.dv, k.scratch[:0])
	if len(k.scratch) > 0 {
		k.comp.note(k.scratch...)
	}
	return k.gcol.OnNewInfo(k.scratch, k.dv)
}
