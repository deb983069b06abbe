package storage

import (
	"encoding/binary"
	"io"
	"slices"

	"repro/internal/vclock"
)

// fullEvery bounds a delta chain: every fullEvery-th record is a full
// vector, so Load resolves at most fullEvery−1 deltas and a single damaged
// chain can cost at most fullEvery records.
const fullEvery = 8

// FullEvery exports the delta-chain bound to the log store
// (internal/storage/logstore), which writes these records, so every store
// agrees on the maximum chain a reader may have to resolve.
const FullEvery = fullEvery

// Record is one decoded on-disk checkpoint record. A full record carries
// the complete checkpoint; a delta record carries the entries that changed
// against the record at index Base, and its DV is nil until resolved
// through the chain (the store holding the record does this).
type Record struct {
	Checkpoint
	Delta   bool
	Base    int
	Entries vclock.Delta
}

// AppendRecord appends the full-record encoding of cp to buf and returns
// the extended slice. It is the writer-side counterpart of DecodeRecord,
// exported for the segmented log store, whose checkpoint frames carry
// these record bytes.
func AppendRecord(buf []byte, cp Checkpoint) []byte { return encodeFull(buf, cp) }

// AppendDeltaRecord appends a delta-record encoding of cp — only the
// entries that changed against the record at index base — to buf. The
// caller owns the chain invariants (base precedes cp.Index and is present
// wherever the record will be decoded).
func AppendDeltaRecord(buf []byte, cp Checkpoint, base int, entries vclock.Delta) []byte {
	return encodeDelta(buf, cp, base, entries)
}

const (
	// ckptMagicV2 ("RDTLGC" + 2) heads every record: full or delta. The v1
	// format (magic ending in 1, full vectors only, no kind word) is retired
	// and fails as a bad header.
	ckptMagicV2 = int64(0x5244544C47432)

	recFull  = 0
	recDelta = 1
)

// maxCount caps decoded vector and entry counts; together with the
// remaining-bytes checks it keeps a corrupted header from demanding an
// arbitrary allocation (found by FuzzDecode).
const maxCount = 1 << 20

// encodeFull serializes a full record: magic, process, index, kind, vector
// length, vector entries, state length, state — all little-endian int64,
// then the raw state bytes. It appends to buf (pass nil for a fresh
// record), sized exactly up front so the whole record costs at most one
// allocation.
func encodeFull(buf []byte, cp Checkpoint) []byte {
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

// encodeDelta serializes a delta record: magic, process, index, kind, base
// index, entry count, (k, v) pairs, state length, state. Only the changed
// entries are written, so the record size is O(changed) + state.
func encodeDelta(buf []byte, cp Checkpoint, base int, entries vclock.Delta) []byte {
	buf = slices.Grow(buf, 8*(7+2*len(entries))+len(cp.State))
	w := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	w(ckptMagicV2)
	w(int64(cp.Process))
	w(int64(cp.Index))
	w(recDelta)
	w(int64(base))
	w(int64(len(entries)))
	for _, e := range entries {
		w(int64(e.K))
		w(int64(e.V))
	}
	w(int64(len(cp.State)))
	return append(buf, cp.State...)
}

// DecodeRecord parses one on-disk checkpoint record. Structural
// corruption — bad magic, truncation, implausible counts, unsorted delta
// entries — fails loudly here; chain-level corruption (a delta whose base
// is missing) fails in the store that resolves the chain.
func DecodeRecord(b []byte) (Record, error) {
	off := 0
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
		return Record{}, corruptf(nil, "storage: bad checkpoint file header")
	}
	var rec Record
	p, ok := rd()
	if !ok {
		return Record{}, corruptf(io.ErrUnexpectedEOF, "storage: truncated record header")
	}
	idx, ok := rd()
	if !ok {
		return Record{}, corruptf(io.ErrUnexpectedEOF, "storage: truncated record header")
	}
	rec.Process, rec.Index = int(p), int(idx)
	kind, ok := rd()
	if !ok || (kind != recFull && kind != recDelta) {
		return Record{}, corruptf(nil, "storage: bad record kind")
	}
	switch kind {
	case recFull:
		n, ok := rd()
		if !ok || n < 0 || n > maxCount || n > int64(len(b)-off)/8 {
			return Record{}, corruptf(nil, "storage: bad vector length")
		}
		rec.DV = vclock.New(int(n))
		for i := range rec.DV {
			v, _ := rd() // length was validated against the bytes present
			rec.DV[i] = int(v)
		}
	case recDelta:
		rec.Delta = true
		base, ok := rd()
		if !ok || base < 0 {
			return Record{}, corruptf(nil, "storage: bad delta base")
		}
		rec.Base = int(base)
		n, ok := rd()
		if !ok || n < 0 || n > maxCount || n > int64(len(b)-off)/16 {
			return Record{}, corruptf(nil, "storage: bad delta entry count")
		}
		rec.Entries = make(vclock.Delta, n)
		for i := range rec.Entries {
			k, _ := rd()
			v, _ := rd() // count was validated against the bytes present
			rec.Entries[i] = vclock.Entry{K: int(k), V: int(v)}
		}
		if err := rec.Entries.Validate(maxCount); err != nil {
			return Record{}, corruptf(err, "storage: bad delta entries")
		}
	}
	sl, ok := rd()
	if !ok || sl < 0 || sl > int64(len(b)-off) {
		// The state length must not exceed the bytes actually present.
		return Record{}, corruptf(nil, "storage: bad state length")
	}
	rec.State = make([]byte, sl)
	copy(rec.State, b[off:off+int(sl)])
	return rec, nil
}
