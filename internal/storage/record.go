package storage

import (
	"encoding/binary"
	"io"
	"math"
	"slices"

	"repro/internal/vclock"
)

const (
	// ckptMagicV2 ("RDTLGC" + 2) heads every record. The v1 format (magic
	// ending in 1, no kind word) is retired and fails as a bad header.
	ckptMagicV2 = int64(0x5244544C47432)

	// recFull is the one record kind: the whole vector. Kind 1, the delta
	// records earlier writers chained against a predecessor, is retired and
	// fails as a bad kind, so such a log refuses to open instead of loading
	// a vector it cannot rebuild.
	recFull = 0
)

// maxCount caps a decoded vector length; together with the remaining-bytes
// checks it keeps a corrupted header from demanding an arbitrary allocation
// (found by FuzzDecode).
const maxCount = 1 << 20

// AppendRecord appends the on-disk encoding of cp to buf and returns the
// extended slice: magic, process, index, kind, vector length, vector
// entries, state length — all little-endian int64 — then the raw state
// bytes. The log store's checkpoint frames carry these bytes; DecodeRecord
// reads them back. The record is sized exactly up front, so with buf nil it
// costs one allocation.
func AppendRecord(buf []byte, cp Checkpoint) []byte {
	buf = slices.Grow(buf, 8*(6+len(cp.DV))+len(cp.State))
	w := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	w(ckptMagicV2)
	w(int64(cp.Process))
	w(int64(cp.Index))
	w(recFull)
	w(int64(len(cp.DV)))
	for _, v := range cp.DV {
		w(int64(v))
	}
	w(int64(len(cp.State)))
	return append(buf, cp.State...)
}

// DecodeRecord parses one on-disk checkpoint record into a checkpoint that
// owns its vector and state. Any structural corruption — bad magic, a kind
// other than the full record, truncation, implausible counts — fails loudly
// with ErrCorrupt.
func DecodeRecord(b []byte) (Checkpoint, error) {
	cp, err := DecodeRecordInto(nil, b)
	if err != nil {
		return Checkpoint{}, err
	}
	cp.State = append(make([]byte, 0, len(cp.State)), cp.State...)
	return cp, nil
}

// DecodeRecordInto is DecodeRecord reading in place: the vector is written
// into dst's memory — grown only when dst is shorter than the record's — and
// the state is left where it lies, cp.State a slice of b. It accepts and
// rejects what DecodeRecord does, with the same errors and the same content,
// whatever dst held.
func DecodeRecordInto(dst vclock.DV, b []byte) (Checkpoint, error) {
	cp, sl, off, err := decodeHead(b, dst, true)
	if err != nil {
		return Checkpoint{}, err
	}
	if sl > len(b)-off {
		// The state length must not exceed the bytes actually present.
		return Checkpoint{}, corruptf(nil, "storage: bad state length")
	}
	cp.State = b[off : off+sl : off+sl]
	return cp, nil
}

// DecodeVector parses a record's prefix — the record less its last stateLen
// bytes, which hold the state — and returns its vector. stateLen is the
// state length the caller knows the record to have, and the record's
// state-length word must equal it. The decoders are one parser
// (decodeHead), so they agree: DecodeVector accepts the prefix of every
// record DecodeRecord accepts, with the same vector, and accepts no prefix
// that DecodeRecord would reject once its stateLen state bytes follow; its
// errors are DecodeRecord's. No state byte is read.
func DecodeVector(prefix []byte, stateLen int) (vclock.DV, error) {
	return DecodeVectorInto(nil, prefix, stateLen)
}

// DecodeVectorInto is DecodeVector writing the vector into dst's memory,
// grown only when dst is shorter than the record's vector. It accepts and
// rejects what DecodeVector does, with the same vector, whatever dst held.
func DecodeVectorInto(dst vclock.DV, prefix []byte, stateLen int) (vclock.DV, error) {
	cp, sl, _, err := decodeHead(prefix, dst, true)
	if err != nil {
		return nil, err
	}
	if sl != stateLen {
		return nil, corruptf(nil, "storage: bad state length")
	}
	return cp.DV, nil
}

// CheckPrefix makes DecodeVector's checks and builds no vector: it accepts
// exactly the prefixes DecodeVector accepts, with the same errors, and
// allocates nothing on success. A store that moves a record without reading
// its vector checks it with this.
func CheckPrefix(prefix []byte, stateLen int) error {
	_, sl, _, err := decodeHead(prefix, nil, false)
	if err == nil && sl != stateLen {
		err = corruptf(nil, "storage: bad state length")
	}
	return err
}

// decodeHead is the one record parser behind the decoders and CheckPrefix:
// it reads the header, the vector and the state-length word of b, and
// returns the checkpoint without its state, the state length (checked
// non-negative) and the offset of the state bytes. With vec the vector is
// read into dst's memory, grown if short; without, the vector's entries are
// skipped, not read: the checkpoint's DV is nil and every structural check
// still holds.
func decodeHead(b []byte, dst vclock.DV, vec bool) (cp Checkpoint, stateLen, off int, err error) {
	rd := func() (int64, bool) {
		if off+8 > len(b) {
			return 0, false
		}
		v := int64(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		return v, true
	}
	magic, ok := rd()
	if !ok || magic != ckptMagicV2 {
		return Checkpoint{}, 0, 0, corruptf(nil, "storage: bad checkpoint file header")
	}
	p, ok := rd()
	if !ok {
		return Checkpoint{}, 0, 0, corruptf(io.ErrUnexpectedEOF, "storage: truncated record header")
	}
	idx, ok := rd()
	if !ok {
		return Checkpoint{}, 0, 0, corruptf(io.ErrUnexpectedEOF, "storage: truncated record header")
	}
	if kind, ok := rd(); !ok || kind != recFull {
		return Checkpoint{}, 0, 0, corruptf(nil, "storage: bad record kind")
	}
	n, ok := rd()
	if !ok || n < 0 || n > maxCount || n > int64(len(b)-off)/8 {
		return Checkpoint{}, 0, 0, corruptf(nil, "storage: bad vector length")
	}
	cp = Checkpoint{Process: int(p), Index: int(idx)}
	if vec {
		if cap(dst) < int(n) {
			dst = vclock.New(int(n))
		}
		cp.DV = dst[:n]
	} else {
		off += 8 * int(n)
	}
	for i := range cp.DV {
		v, _ := rd() // length was validated against the bytes present
		cp.DV[i] = int(v)
	}
	sl, ok := rd()
	if !ok || sl < 0 || sl > math.MaxInt {
		return Checkpoint{}, 0, 0, corruptf(nil, "storage: bad state length")
	}
	return cp, int(sl), off, nil
}
