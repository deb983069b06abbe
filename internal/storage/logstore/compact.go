package logstore

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/storage"
)

// kickCompactLocked nudges the compactor; a kick already pending is enough.
func (s *LogStore) kickCompactLocked() {
	if s.opt.NoCompact {
		return
	}
	select {
	case s.compactKick <- struct{}{}:
	default:
	}
}

// compactor runs in the background and, whenever kicked (after commits and
// deletes), compacts segments until no victim qualifies.
func (s *LogStore) compactor() {
	defer close(s.compactorDone)
	for {
		select {
		case <-s.stop:
			return
		case <-s.compactKick:
			for s.compactOnce() {
			}
		}
	}
}

// pickVictimLocked selects the sealed segment (not the tail, no staged
// batches) with the worst live ratio below the threshold; −1 if none.
func (s *LogStore) pickVictimLocked() int {
	best, bestRatio := -1, s.opt.CompactRatio
	for id, seg := range s.segs {
		if id == s.projSeg || seg.batches > 0 {
			continue
		}
		if ratio := float64(seg.live) / float64(seg.size); ratio < bestRatio {
			best, bestRatio = id, ratio
		}
	}
	return best
}

// compactOnce rewrites one victim segment: every live record is re-staged
// at the tail as a self-contained full record (a supersede — replay's
// last-writer-wins makes a crash anywhere in between safe, because the
// victim's copy survives until the rewrites are durable), tombstones whose
// dead bytes live in other segments are carried forward so those bytes
// cannot resurrect, and only after every staged batch reports durable is
// the victim file deleted. Reports whether it compacted anything.
func (s *LogStore) compactOnce() bool {
	s.mu.Lock()
	if s.usableLocked() != nil {
		s.mu.Unlock()
		return false
	}
	victim := s.pickVictimLocked()
	if victim < 0 {
		s.mu.Unlock()
		return false
	}
	var lives, carry []int
	for idx, ri := range s.recs {
		switch {
		case ri.seg == victim && !ri.dead:
			lives = append(lives, idx)
		case ri.dead && ri.tombSeg == victim && ri.seg != victim:
			// The record's bytes survive elsewhere; dropping this tombstone
			// with the victim would resurrect them at the next replay.
			carry = append(carry, idx)
		}
	}
	// Ascending order keeps delta bases rewritten before their dependents,
	// so chain links dissolve pairwise as each side goes full.
	sort.Ints(lives)
	sort.Ints(carry)
	// Staging fills one batch until it seals, so the distinct batches to
	// hold come in runs: comparing with the last one held finds them all.
	var held []*batch
	hold := func(b *batch) {
		if len(held) == 0 || held[len(held)-1] != b {
			held = append(held, b)
			s.holdLocked(b)
		}
	}
	for _, idx := range lives {
		cp, err := s.loadLocked(idx)
		if err != nil {
			s.failLocked(fmt.Errorf("compaction of segment %d: %w", victim, err))
			s.mu.Unlock()
			return false
		}
		hold(s.stageRewriteLocked(cp))
	}
	for _, idx := range carry {
		b := s.stageTombstoneLocked(idx)
		s.recs[idx].tombSeg = b.seg
		hold(b)
	}
	for _, b := range held {
		_ = s.awaitLocked(b) // a failure is sticky: s.failed reports it below
	}
	if s.failed != nil || s.closed {
		// Abort without dropping the victim: its copies are merely
		// superseded, which replay resolves.
		s.mu.Unlock()
		return false
	}
	for idx, ri := range s.recs {
		if ri.seg == victim && ri.dead {
			if ri.delta && s.child[ri.base] == idx {
				delete(s.child, ri.base)
			}
			delete(s.child, idx)
			delete(s.recs, idx)
		}
	}
	// No record points into the victim any more, so nothing reads it again:
	// its descriptor goes with its accounting, before the unlink, or the
	// file's blocks would stay allocated for as long as the store is open.
	s.segs[victim].closeReader()
	delete(s.segs, victim)
	s.obs.Compactions.Inc()
	s.updateLiveRatioLocked()
	s.mu.Unlock()
	// The victim's contents are durable at the tail; the file is garbage
	// whether or not this remove survives a crash.
	os.Remove(segPath(s.dir, victim))
	return true
}

// stageRewriteLocked re-stages a live record as a self-contained full
// record at the tail, superseding its old copy. The caller owns durability
// (waits on the returned batch) and victim disposal.
func (s *LogStore) stageRewriteLocked(cp storage.Checkpoint) *batch {
	s.enc = storage.AppendRecord(s.enc[:0], cp)
	s.roomLocked(frameHdrLen + len(s.enc))
	b, bodyOff, body := s.appendFrameLocked(kindCheckpoint, s.enc)
	b.saved = append(b.saved, cp.Index)
	old := s.recs[cp.Index]
	if old.delta && s.child[old.base] == cp.Index {
		delete(s.child, old.base)
	}
	s.segs[old.seg].live -= int64(old.size)
	ri := &recInfo{
		seg: b.seg, off: bodyOff, size: len(body), stateLen: old.stateLen,
		tombSeg: -1, pending: body, pendingIn: b,
	}
	s.recs[cp.Index] = ri
	s.segs[b.seg].live += int64(len(body))
	return ri.pendingIn
}
