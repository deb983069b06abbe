package logstore

import (
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/storage"
)

// victimLocked reports whether segment id qualifies for compaction: sealed
// (not the tail), no staged batch still targeting it, and a live ratio below
// compactRatio.
func (s *LogStore) victimLocked(id int) bool {
	seg := s.segs[id]
	return seg != nil && id != s.projSeg && seg.batches == 0 &&
		float64(seg.live)/float64(seg.size) < compactRatio
}

// kickIfVictimLocked wakes the compactor if segment id qualifies; a kick
// already pending is enough. A segment becomes a victim only when one of the
// conditions of victimLocked turns true with the others holding: the tail
// rolls past it, its last staged batch commits, or a Delete drops its live
// bytes — its size grows only while it is the tail. Those three events and
// Open, which checks what replay left, are the only callers: an op that
// cannot have made a victim wakes nobody.
func (s *LogStore) kickIfVictimLocked(id int) {
	if s.opt.NoCompact || !s.victimLocked(id) {
		return
	}
	select {
	case s.compactKick <- struct{}{}:
		s.wakes++
	default:
	}
}

// compactor runs in the background and, whenever kicked (a segment has
// become a victim), compacts segments until no victim qualifies.
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
	best, bestRatio := -1, compactRatio
	for id, seg := range s.segs {
		if !s.victimLocked(id) {
			continue
		}
		if ratio := float64(seg.live) / float64(seg.size); ratio < bestRatio {
			best, bestRatio = id, ratio
		}
	}
	return best
}

// compactOnce rewrites one victim segment: every live record is re-staged
// at the tail (a supersede — replay's
// last-writer-wins makes a crash anywhere in between safe, because the
// victim's copy survives until the rewrites are durable), tombstones whose
// index still has a copy in another segment are carried forward so that copy
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
		case ri.dead && ri.tombSeg == victim && ri.copyOutside(victim):
			// A copy of the index survives elsewhere; dropping this
			// tombstone with the victim would resurrect it at the next replay.
			carry = append(carry, idx)
		}
	}
	// Ascending order makes the rewrite, like the bytes it leaves, independent
	// of map iteration.
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
		// Decode rather than copy the body: a record that rotted on the
		// device fails here instead of moving under a fresh checksum.
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
		ri := s.recs[idx]
		ri.tombSeg = b.seg
		s.recs[idx] = ri
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
		changed := slices.Contains(ri.older, victim)
		if changed {
			// In place: the entry must be written back below.
			ri.older = slices.DeleteFunc(ri.older, func(seg int) bool { return seg == victim })
		}
		if ri.seg == victim && ri.dead {
			if len(ri.older) == 0 {
				delete(s.recs, idx)
				continue
			}
			// An earlier copy outlives this one: seg names its segment, so
			// the tombstone is carried until that segment goes too.
			ri.seg, ri.older = ri.older[0], ri.older[1:]
			changed = true
		}
		if changed {
			s.recs[idx] = ri
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

// stageRewriteLocked re-stages a live record at the tail, superseding its
// old copy. The caller owns durability (waits on the returned batch) and
// victim disposal.
func (s *LogStore) stageRewriteLocked(cp storage.Checkpoint) *batch {
	s.enc = storage.AppendRecord(s.enc[:0], cp)
	s.roomLocked(frameHdrLen + len(s.enc))
	b, bodyOff, body := s.appendFrameLocked(kindCheckpoint, s.enc)
	b.saved = append(b.saved, cp.Index)
	old := s.recs[cp.Index]
	s.segs[old.seg].live -= int64(old.size)
	// The superseded copy is not listed in older: the victim holding it is
	// dropped once this rewrite is durable, or the store stops.
	s.recs[cp.Index] = recInfo{
		seg: b.seg, off: bodyOff, size: len(body), stateLen: old.stateLen,
		tombSeg: -1, older: old.older, pending: body, pendingIn: b,
	}
	s.segs[b.seg].live += int64(len(body))
	return b
}
