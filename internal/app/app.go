// Package app provides application state machines whose state is what the
// checkpoints actually save: the recovery demonstrations restore them to a
// checkpointed prefix of their history, making rollback observable at the
// application level rather than just in the middleware counters.
package app

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// App is a snapshotable application state machine.
type App interface {
	// AppendSnapshot appends the serialized current state to dst and returns
	// the extended slice. The kernel snapshots on every checkpoint, under the
	// node's lock, into a buffer it reuses: an implementation that encodes
	// straight into dst keeps checkpoints free of garbage.
	AppendSnapshot(dst []byte) []byte
	// Restore replaces the state with a previously snapshotted one. The
	// snapshot is lent for the duration of the call: the caller reuses its
	// memory afterwards, so an implementation that keeps any of its bytes
	// copies them.
	Restore(snapshot []byte) error
}

// KV is a tiny key-value store with a monotone operation counter; it is the
// stand-in for "the application's local state" of the model. Safe for
// concurrent use.
//
// Keys are never removed, so every key owns a fixed slot in vals, and order
// lists the keys sorted — maintained on insertion, so a snapshot is one pass
// over two slices: no sorting, no hashing, no allocation.
type KV struct {
	mu    sync.Mutex
	slot  map[string]int // key -> its position in vals
	vals  []int64
	order []kvKey // every key, ascending
	ops   int64
}

type kvKey struct {
	key  string
	slot int
}

// NewKV returns an empty store.
func NewKV() *KV {
	return &KV{slot: make(map[string]int)}
}

// slotLocked returns key's slot, creating a zero-valued one (and its place
// in the sorted order) on first use.
func (kv *KV) slotLocked(key string) int {
	if i, ok := kv.slot[key]; ok {
		return i
	}
	i := len(kv.vals)
	kv.vals = append(kv.vals, 0)
	kv.slot[key] = i
	at := len(kv.order) // keys mostly arrive ascending: try the append first
	if at > 0 && key < kv.order[at-1].key {
		at, _ = slices.BinarySearchFunc(kv.order, key, func(e kvKey, k string) int { return cmp.Compare(e.key, k) })
	}
	kv.order = slices.Insert(kv.order, at, kvKey{key: key, slot: i})
	return i
}

// Set stores a value and bumps the operation counter.
func (kv *KV) Set(key string, v int64) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.vals[kv.slotLocked(key)] = v
	kv.ops++
}

// Add increments a value and bumps the operation counter.
func (kv *KV) Add(key string, delta int64) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.vals[kv.slotLocked(key)] += delta
	kv.ops++
}

// Get reads a value.
func (kv *KV) Get(key string) (int64, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	i, ok := kv.slot[key]
	if !ok {
		return 0, false
	}
	return kv.vals[i], true
}

// Ops returns the number of mutations applied since creation or the last
// Restore target's snapshot point.
func (kv *KV) Ops() int64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.ops
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.order)
}

// AppendSnapshot implements App: ops counter, key count, then the key/value
// pairs in ascending key order, every integer a little-endian int64.
func (kv *KV) AppendSnapshot(dst []byte) []byte {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(kv.ops))
	dst = le.AppendUint64(dst, uint64(len(kv.order)))
	for _, k := range kv.order {
		dst = le.AppendUint64(dst, uint64(len(k.key)))
		dst = append(dst, k.key...)
		dst = le.AppendUint64(dst, uint64(kv.vals[k.slot]))
	}
	return dst
}

// Restore implements App. The snapshot must decode exactly: a truncated
// field or bytes past the last pair reject it, leaving the state untouched.
// A snapshot of the store's own keys in their order — a recovery's usual
// case — is written into the existing slots and allocates nothing.
func (kv *KV) Restore(snapshot []byte) error {
	kv.mu.Lock()
	sameKeys := kv.restoreInPlaceLocked(snapshot)
	kv.mu.Unlock()
	if sameKeys {
		return nil
	}
	rest := snapshot
	next := func() (int64, bool) {
		if len(rest) < 8 {
			return 0, false
		}
		v := int64(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		return v, true
	}
	ops, ok := next()
	if !ok {
		return fmt.Errorf("app: corrupt snapshot: %d-byte header", len(snapshot))
	}
	// A pair is at least its key length and its value, 16 bytes.
	count, ok := next()
	if !ok || count < 0 || count > int64(len(rest)/16) {
		return fmt.Errorf("app: corrupt snapshot length")
	}
	re := KV{slot: make(map[string]int, count), vals: make([]int64, 0, count), order: make([]kvKey, 0, count)}
	for i := int64(0); i < count; i++ {
		kl, ok := next()
		if !ok || kl < 0 || kl > 1<<20 {
			return fmt.Errorf("app: corrupt key length")
		}
		if kl > int64(len(rest)) {
			return fmt.Errorf("app: corrupt key: %d of %d bytes", len(rest), kl)
		}
		key := string(rest[:kl])
		rest = rest[kl:]
		v, ok := next()
		if !ok {
			return fmt.Errorf("app: corrupt value of key %q", key)
		}
		re.vals[re.slotLocked(key)] = v
	}
	if len(rest) > 0 {
		return fmt.Errorf("app: corrupt snapshot: %d trailing bytes", len(rest))
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.slot, kv.vals, kv.order, kv.ops = re.slot, re.vals, re.order, ops
	return nil
}

// restoreInPlaceLocked restores snapshot into the existing slots if it
// names exactly the store's keys, in their order, and decodes exactly. It
// checks the whole snapshot before it writes a value, and reports whether
// it restored; any other snapshot is left to Restore's general path.
func (kv *KV) restoreInPlaceLocked(snapshot []byte) bool {
	le := binary.LittleEndian
	if len(snapshot) < 16 || le.Uint64(snapshot[8:]) != uint64(len(kv.order)) {
		return false
	}
	off := 16
	for _, k := range kv.order {
		if len(snapshot)-off < 16+len(k.key) || le.Uint64(snapshot[off:]) != uint64(len(k.key)) ||
			string(snapshot[off+8:off+8+len(k.key)]) != k.key {
			return false
		}
		off += 16 + len(k.key)
	}
	if off != len(snapshot) {
		return false
	}
	off = 16
	for _, k := range kv.order {
		off += 8 + len(k.key)
		kv.vals[k.slot] = int64(le.Uint64(snapshot[off:]))
		off += 8
	}
	kv.ops = int64(le.Uint64(snapshot))
	return true
}

// Equal reports whether two stores hold identical state (counter + data).
func (kv *KV) Equal(other *KV) bool {
	return bytes.Equal(kv.AppendSnapshot(nil), other.AppendSnapshot(nil))
}
