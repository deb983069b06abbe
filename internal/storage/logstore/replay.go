package logstore

import (
	"encoding/binary"
	"errors"
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

func parseGenName(name string) (gen int, ok bool) {
	rest, found := strings.CutPrefix(name, "gen-")
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, ".log")
	if !found {
		return 0, false
	}
	gen, err := strconv.Atoi(rest)
	if err != nil || gen < 0 {
		return 0, false
	}
	return gen, true
}

// errTornSwitch reports that the newest generation holds no whole batch: a
// crash cut the switch to it before its first batch was durable.
var errTornSwitch = errors.New("logstore: generation torn in its first batch")

// replay rebuilds the index from the newest generation whose first batch is
// complete, and removes every other generation file. A generation is whole
// in itself — its first batch is the live set it was opened with — so
// replay reads one file, applying its batches in log order, which is causal
// order: a tombstone always follows the save it kills.
//
// Which generation: the newest file, unless a crash cut the switch to it
// before its first batch was durable. Then the generation before it is
// whole, because the committer removes g only after g+1's first batch and
// the directory are synced, and it is replayed instead; the torn file
// counts as a torn tail. The order in which the other files are removed does
// not matter: each removal, surviving a crash or not, leaves the newest
// complete generation the newest complete generation.
func (s *LogStore) replay() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("logstore: open %s: %w", s.dir, err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("logstore: scan %s: %w", s.dir, err)
	}
	var gens []int
	for _, e := range entries {
		if g, ok := parseGenName(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Ints(gens)
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		err := s.replayGen(g, i == len(gens)-1)
		if err == nil {
			s.gen = g
			break
		}
		if !errors.Is(err, errTornSwitch) {
			return err
		}
		s.tornTails++
		if g > 0 && (i == 0 || gens[i-1] != g-1) {
			return corruptf("logstore: generation %d is torn in its first batch and generation %d is missing", g, g-1)
		}
	}
	for _, g := range gens {
		if g == s.gen {
			continue
		}
		if err := os.Remove(genPath(s.dir, g)); err != nil {
			return fmt.Errorf("logstore: remove generation %d: %w", g, err)
		}
	}
	s.stats.Peak = s.stats.Live
	s.stats.PeakBytes = s.stats.LiveBytes
	return nil
}

// replayGen applies generation g's batches. Only the newest generation
// (final) may end mid-batch — a crash between write and sync — and its torn
// tail is truncated at the last durable batch boundary and counted; if not
// even its first batch is whole it applies nothing and reports
// errTornSwitch. Any other anomaly — a truncation in an older generation, a
// checksum mismatch in a complete batch, a bad header — is bit rot in
// acknowledged data and fails with storage.ErrCorrupt.
func (s *LogStore) replayGen(g int, final bool) error {
	path := genPath(s.dir, g)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("logstore: read generation %d: %w", g, err)
	}
	// A crash can persist any prefix of the header write; a complete header
	// that fails validation cannot come from a crash.
	if len(data) >= genHdrLen {
		if binary.LittleEndian.Uint64(data[0:]) != genMagic {
			return corruptf("logstore: generation %d: bad file magic", g)
		}
		if got := int(binary.LittleEndian.Uint64(data[8:])); got != g {
			return corruptf("logstore: generation file %d records generation %d", g, got)
		}
	}
	end := genHdrLen // end of the last whole batch
	for end < len(data) {
		rem := len(data) - end
		if rem < batchHdrLen {
			break
		}
		hdr := data[end : end+batchHdrLen]
		if crc32.ChecksumIEEE(hdr[:16]) != binary.LittleEndian.Uint32(hdr[16:]) {
			// The header checksum is what keeps a flipped bit in payloadLen
			// from turning acknowledged data into a plausible torn tail.
			return corruptf("logstore: generation %d: batch header checksum mismatch at offset %d", g, end)
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != batchMagic {
			return corruptf("logstore: generation %d: bad batch magic at offset %d", g, end)
		}
		records := int(binary.LittleEndian.Uint32(hdr[4:]))
		plen := int(binary.LittleEndian.Uint32(hdr[8:]))
		if plen > maxPayload {
			return corruptf("logstore: generation %d: implausible batch payload length %d", g, plen)
		}
		if rem < batchHdrLen+plen {
			break
		}
		payload := data[end+batchHdrLen : end+batchHdrLen+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[12:]) {
			return corruptf("logstore: generation %d: batch payload checksum mismatch at offset %d", g, end)
		}
		if err := s.replayBatch(g, int64(end+batchHdrLen), payload, records); err != nil {
			return err
		}
		end += batchHdrLen + plen
	}
	switch {
	case end == genHdrLen && final:
		return errTornSwitch
	case end == genHdrLen:
		return corruptf("logstore: generation %d holds no whole batch but a later generation exists", g)
	case end < len(data) && !final:
		return corruptf("logstore: generation %d truncated mid-batch at offset %d but a later generation exists", g, end)
	case end < len(data):
		if err := os.Truncate(path, int64(end)); err != nil {
			return fmt.Errorf("logstore: truncate torn tail of generation %d: %w", g, err)
		}
		s.tornTails++
	}
	s.genOff = int64(end)
	return nil
}

// replayBatch applies one verified batch's frames in order.
func (s *LogStore) replayBatch(g int, base int64, payload []byte, records int) error {
	off, n := 0, 0
	for off < len(payload) {
		if len(payload)-off < frameHdrLen {
			return corruptf("logstore: generation %d: truncated frame header inside a checksummed batch", g)
		}
		bl := int(binary.LittleEndian.Uint32(payload[off:]))
		kind := payload[off+frameHdrLen-1]
		off += frameHdrLen
		if bl < 0 || bl > len(payload)-off {
			return corruptf("logstore: generation %d: frame overruns its batch payload", g)
		}
		body := payload[off : off+bl]
		switch kind {
		case kindCheckpoint:
			if err := s.replayApplySave(g, base+int64(off), body); err != nil {
				return err
			}
		case kindTombstone:
			if err := s.replayApplyTomb(g, body); err != nil {
				return err
			}
		default:
			return corruptf("logstore: generation %d: unknown frame kind %d", g, kind)
		}
		off += bl
		n++
	}
	if n != records {
		return corruptf("logstore: generation %d: batch declares %d records, holds %d", g, records, n)
	}
	return nil
}

// replayApplySave indexes one checkpoint record. Within a generation an
// index is saved again only after a tombstone freed it, so a save of a live
// index can only be corruption.
func (s *LogStore) replayApplySave(g int, bodyOff int64, body []byte) error {
	cp, err := storage.DecodeRecord(body)
	if err != nil {
		return fmt.Errorf("logstore: generation %d: %w", g, err)
	}
	if _, ok := s.recs[cp.Index]; ok {
		return corruptf("logstore: generation %d: duplicate live checkpoint %d", g, cp.Index)
	}
	s.recs[cp.Index] = recInfo{off: bodyOff, size: len(body), stateLen: len(cp.State)}
	s.sorted = storage.InsertSorted(s.sorted, cp.Index)
	s.live += int64(len(body))
	s.stats.Live++
	s.stats.LiveBytes += len(cp.State)
	return nil
}

// replayApplyTomb applies one tombstone. A tombstone lives in the generation
// of the record it kills, so one naming no live record can only be
// corruption.
func (s *LogStore) replayApplyTomb(g int, body []byte) error {
	if len(body) != 8 {
		return corruptf("logstore: generation %d: malformed tombstone", g)
	}
	idx := int(binary.LittleEndian.Uint64(body))
	ri, ok := s.recs[idx]
	if !ok {
		return corruptf("logstore: generation %d: tombstone for absent checkpoint %d", g, idx)
	}
	delete(s.recs, idx)
	s.sorted = storage.RemoveSorted(s.sorted, idx)
	s.live -= int64(ri.size)
	s.stats.Live--
	s.stats.LiveBytes -= ri.stateLen
	return nil
}
