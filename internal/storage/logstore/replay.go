package logstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// corruptf builds a storage.ErrCorrupt-wrapped error, the loud-error
// vocabulary shared with the record decoder: callers match errors.Is, not
// strings.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), storage.ErrCorrupt)
}

func parseSegName(name string) (id int, ok bool) {
	rest, found := strings.CutPrefix(name, "seg-")
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, ".log")
	if !found {
		return 0, false
	}
	id, err := strconv.Atoi(rest)
	if err != nil || id < 0 {
		return 0, false
	}
	return id, true
}

// replay rebuilds the index by scanning every segment in id order. Batches
// are applied in log order, which is causal order — a tombstone always
// follows the save it kills, a compaction rewrite always lands in a later
// segment than the copy it supersedes — so last-writer-wins per index
// reconstructs exactly the acknowledged state.
//
// The torn-tail rule: only the final segment may end mid-batch (a crash hit
// between write and sync, so the batch was never acknowledged); the tail is
// physically truncated at the last durable batch boundary and counted. Any
// anomaly anywhere else — a mid-log truncation, a checksum mismatch in a
// complete batch, a bad segment header — is bit rot in acknowledged data
// and fails the open with storage.ErrCorrupt.
func (s *LogStore) replay() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("logstore: open %s: %w", s.dir, err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("logstore: scan %s: %w", s.dir, err)
	}
	var ids []int
	for _, e := range entries {
		if id, ok := parseSegName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		removed, err := s.replaySegment(id, i == len(ids)-1)
		if err != nil {
			return err
		}
		if !removed {
			s.projSeg = id
		}
	}
	if s.projSeg >= 0 {
		s.projOff = s.segs[s.projSeg].size
	}
	s.stats.Peak = s.stats.Live
	s.stats.PeakBytes = s.stats.LiveBytes
	return nil
}

// replaySegment scans one segment file. Gaps in the id sequence are normal
// (compaction deletes whole segments). Reports removed=true when a final
// segment too short to hold even its header was dropped.
func (s *LogStore) replaySegment(id int, final bool) (removed bool, err error) {
	path := segPath(s.dir, id)
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("logstore: read segment %d: %w", id, err)
	}
	if len(data) < segHdrLen {
		// A crash can persist any prefix of the header write; a complete
		// header that fails validation below cannot come from a crash.
		if !final {
			return false, corruptf("logstore: segment %d truncated below its header", id)
		}
		s.tornTails++
		if err := os.Remove(path); err != nil {
			return false, fmt.Errorf("logstore: drop torn segment %d: %w", id, err)
		}
		return true, nil
	}
	if binary.LittleEndian.Uint64(data[0:]) != segMagic {
		return false, corruptf("logstore: segment %d: bad segment magic", id)
	}
	if got := int(binary.LittleEndian.Uint64(data[8:])); got != id {
		return false, corruptf("logstore: segment file %d records id %d", id, got)
	}
	s.segs[id] = &segInfo{}
	off, torn := segHdrLen, -1
	for off < len(data) {
		rem := len(data) - off
		if rem < batchHdrLen {
			torn = off
			break
		}
		hdr := data[off : off+batchHdrLen]
		if crc32.ChecksumIEEE(hdr[:16]) != binary.LittleEndian.Uint32(hdr[16:]) {
			// The header checksum is what keeps a flipped bit in payloadLen
			// from turning acknowledged data into a plausible torn tail.
			return false, corruptf("logstore: segment %d: batch header checksum mismatch at offset %d", id, off)
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != batchMagic {
			return false, corruptf("logstore: segment %d: bad batch magic at offset %d", id, off)
		}
		records := int(binary.LittleEndian.Uint32(hdr[4:]))
		plen := int(binary.LittleEndian.Uint32(hdr[8:]))
		if plen > maxPayload {
			return false, corruptf("logstore: segment %d: implausible batch payload length %d", id, plen)
		}
		if rem < batchHdrLen+plen {
			torn = off
			break
		}
		payload := data[off+batchHdrLen : off+batchHdrLen+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[12:]) {
			return false, corruptf("logstore: segment %d: batch payload checksum mismatch at offset %d", id, off)
		}
		if err := s.replayBatch(id, int64(off+batchHdrLen), payload, records); err != nil {
			return false, err
		}
		off += batchHdrLen + plen
	}
	if torn >= 0 {
		if !final {
			return false, corruptf("logstore: segment %d truncated mid-batch at offset %d", id, torn)
		}
		if err := os.Truncate(path, int64(torn)); err != nil {
			return false, fmt.Errorf("logstore: truncate torn tail of segment %d: %w", id, err)
		}
		s.tornTails++
		data = data[:torn]
	}
	s.segs[id].size = int64(len(data))
	return false, nil
}

// replayBatch applies one verified batch's frames in order.
func (s *LogStore) replayBatch(seg int, base int64, payload []byte, records int) error {
	off, n := 0, 0
	for off < len(payload) {
		if len(payload)-off < frameHdrLen {
			return corruptf("logstore: segment %d: truncated frame header inside a checksummed batch", seg)
		}
		bl := int(binary.LittleEndian.Uint32(payload[off:]))
		kind := payload[off+frameHdrLen-1]
		off += frameHdrLen
		if bl < 0 || bl > len(payload)-off {
			return corruptf("logstore: segment %d: frame overruns its batch payload", seg)
		}
		body := payload[off : off+bl]
		switch kind {
		case kindCheckpoint:
			if err := s.replayApplySave(seg, base+int64(off), body); err != nil {
				return err
			}
		case kindTombstone:
			if err := s.replayApplyTomb(seg, body); err != nil {
				return err
			}
		default:
			return corruptf("logstore: segment %d: unknown frame kind %d", seg, kind)
		}
		off += bl
		n++
	}
	if n != records {
		return corruptf("logstore: segment %d: batch declares %d records, holds %d", seg, records, n)
	}
	return nil
}

// replayApplySave indexes one checkpoint record. A duplicate index from a
// later segment is a legitimate supersede — a compaction rewrite whose
// victim the crash preserved, or a rollback re-save after a tombstone — and
// the later copy wins; a live duplicate inside one segment can only be
// corruption.
func (s *LogStore) replayApplySave(seg int, bodyOff int64, body []byte) error {
	cp, err := storage.DecodeRecord(body)
	if err != nil {
		return fmt.Errorf("logstore: segment %d: %w", seg, err)
	}
	idx := cp.Index
	ri := recInfo{seg: seg, off: bodyOff, size: len(body), stateLen: len(cp.State), tombSeg: -1}
	if old, ok := s.recs[idx]; ok {
		if !old.dead {
			if old.seg == seg {
				return corruptf("logstore: segment %d: duplicate live checkpoint %d", seg, idx)
			}
			s.segs[old.seg].live -= int64(old.size)
			s.stats.Live--
			s.stats.LiveBytes -= old.stateLen
			s.sorted = removeSorted(s.sorted, idx)
		}
		ri.older = withSeg(old.older, old.seg)
	}
	s.recs[idx] = ri
	s.sorted = insertSorted(s.sorted, idx)
	s.segs[seg].live += int64(len(body))
	s.stats.Live++
	s.stats.LiveBytes += len(cp.State)
	return nil
}

// replayApplyTomb applies one tombstone. An orphan (no such record) is
// tolerated: compaction drops dead bytes from one segment while the
// tombstone survives in another; a duplicate on an already-dead record is a
// carried tombstone and just refreshes the bookkeeping.
func (s *LogStore) replayApplyTomb(seg int, body []byte) error {
	if len(body) != 8 {
		return corruptf("logstore: segment %d: malformed tombstone", seg)
	}
	idx := int(binary.LittleEndian.Uint64(body))
	if idx < 0 {
		return corruptf("logstore: segment %d: tombstone for negative index", seg)
	}
	ri, ok := s.recs[idx]
	if !ok {
		return nil
	}
	wasDead := ri.dead
	ri.dead = true
	ri.tombSeg = seg
	s.recs[idx] = ri
	if wasDead {
		return nil
	}
	s.sorted = removeSorted(s.sorted, idx)
	s.segs[ri.seg].live -= int64(ri.size)
	s.stats.Live--
	s.stats.LiveBytes -= ri.stateLen
	return nil
}
