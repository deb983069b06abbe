package app

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// referenceSnapshot is the encoder KV shipped with before AppendSnapshot:
// sort the map's keys, binary.Write every integer. Stores written by it must
// keep restoring, so the golden test holds the new encoder to its bytes.
func referenceSnapshot(ops int64, data map[string]int64) []byte {
	var buf bytes.Buffer
	w := func(v int64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(ops)
	w(int64(len(data)))
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w(int64(len(k)))
		buf.WriteString(k)
		w(data[k])
	}
	return buf.Bytes()
}

// mutate applies one seeded Set or Add to kv and to the model map.
func mutate(rng *rand.Rand, kv *KV, model map[string]int64) {
	key := fmt.Sprintf("k%02d", rng.Intn(40))
	if rng.Intn(2) == 0 {
		v := rng.Int63n(1000) - 500
		kv.Set(key, v)
		model[key] = v
	} else {
		d := rng.Int63n(100) - 50
		kv.Add(key, d)
		model[key] += d
	}
}

// sortedKeys reads kv's incrementally maintained key order.
func sortedKeys(kv *KV) []string {
	keys := make([]string, len(kv.order))
	for i, k := range kv.order {
		keys[i] = k.key
	}
	return keys
}

func TestAppendSnapshotMatchesReferenceEncoder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kv, model := NewKV(), map[string]int64{}
		for i, n := 0, rng.Intn(200); i < n; i++ {
			mutate(rng, kv, model)
		}
		want := referenceSnapshot(kv.Ops(), model)
		if got := kv.AppendSnapshot(nil); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: AppendSnapshot differs from the reference encoder\n got %x\nwant %x", seed, got, want)
		}
		// Append semantics: what dst already holds stays in front.
		if got := kv.AppendSnapshot([]byte("head")); !bytes.Equal(got, append([]byte("head"), want...)) {
			t.Fatalf("seed %d: AppendSnapshot clobbered its destination prefix", seed)
		}
	}
}

func TestKVSortedKeysTrackTheMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kv, model := NewKV(), map[string]int64{}
	var saved []byte
	var savedModel map[string]int64
	for i := 0; i < 2000; i++ {
		switch r := rng.Intn(20); {
		case r == 0:
			saved = kv.AppendSnapshot(nil)
			savedModel = make(map[string]int64, len(model))
			for k, v := range model {
				savedModel[k] = v
			}
		case r == 1 && saved != nil:
			if err := kv.Restore(saved); err != nil {
				t.Fatal(err)
			}
			model = make(map[string]int64, len(savedModel))
			for k, v := range savedModel {
				model[k] = v
			}
		default:
			mutate(rng, kv, model)
		}
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		if got := sortedKeys(kv); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: sorted keys %v, want %v", i, got, want)
		}
		for k, v := range model {
			if got, ok := kv.Get(k); !ok || got != v {
				t.Fatalf("step %d: Get(%s) = %d,%v want %d", i, k, got, ok, v)
			}
		}
	}
}

// TestKVRestoreSortsForeignOrder: a snapshot whose pairs are not in key
// order (no encoder of ours writes one) still restores to a sorted store.
func TestKVRestoreSortsForeignOrder(t *testing.T) {
	le := binary.LittleEndian
	snap := le.AppendUint64(nil, 9)
	snap = le.AppendUint64(snap, 3)
	for _, k := range []string{"m", "a", "z"} {
		snap = le.AppendUint64(snap, 1)
		snap = append(snap, k...)
		snap = le.AppendUint64(snap, uint64(k[0]))
	}
	kv := NewKV()
	if err := kv.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sortedKeys(kv)); got != "[a m z]" {
		t.Fatalf("sorted keys %s, want [a m z]", got)
	}
	if v, _ := kv.Get("m"); v != 'm' || kv.Ops() != 9 {
		t.Fatalf("m = %d, ops = %d", v, kv.Ops())
	}
}

func TestAppendSnapshotWarmBufferAllocatesNothing(t *testing.T) {
	kv := NewKV()
	for i := 0; i < 170; i++ {
		kv.Set(fmt.Sprintf("key-%04d", i), int64(i))
	}
	buf := kv.AppendSnapshot(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		kv.Add("key-0042", 1)
		buf = kv.AppendSnapshot(buf[:0])
	}); allocs != 0 {
		t.Fatalf("AppendSnapshot into a warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestKVRestoreRejectsEveryTruncation cuts a valid snapshot at every byte
// (header, count, key length, inside a key, value) and appends to it: each
// must be refused and must leave the store as it was.
func TestKVRestoreRejectsEveryTruncation(t *testing.T) {
	src := NewKV()
	src.Set("alpha", 1)
	src.Set("b", -2)
	src.Set("", 3) // the empty key: a zero key length is legal
	snap := src.AppendSnapshot(nil)

	kv := NewKV()
	kv.Set("keep", 42)
	before := kv.AppendSnapshot(nil)
	cases := map[string][]byte{"trailing byte": append(append([]byte(nil), snap...), 0)}
	for cut := 0; cut < len(snap); cut++ {
		cases[fmt.Sprintf("cut at %d of %d", cut, len(snap))] = snap[:cut]
	}
	// A count the remaining bytes cannot hold must not size an allocation.
	huge := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint64(huge[8:], 1<<40)
	cases["count 2^40"] = huge
	for name, b := range cases {
		if err := kv.Restore(b); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		if !bytes.Equal(kv.AppendSnapshot(nil), before) {
			t.Fatalf("%s: a refused restore changed the store", name)
		}
	}
	if err := kv.Restore(snap); err != nil || !kv.Equal(src) {
		t.Fatalf("the intact snapshot must still restore: %v", err)
	}
}

func TestKVBasics(t *testing.T) {
	kv := NewKV()
	kv.Set("x", 5)
	kv.Add("x", 2)
	kv.Add("y", 1)
	if v, ok := kv.Get("x"); !ok || v != 7 {
		t.Fatalf("Get(x) = %d,%v want 7,true", v, ok)
	}
	if _, ok := kv.Get("absent"); ok {
		t.Fatal("absent key should not resolve")
	}
	if kv.Ops() != 3 || kv.Len() != 2 {
		t.Fatalf("Ops=%d Len=%d, want 3, 2", kv.Ops(), kv.Len())
	}
}

func TestKVSnapshotRestoreRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kv := NewKV()
		for i := 0; i < rng.Intn(40); i++ {
			key := string(rune('a' + rng.Intn(10)))
			if rng.Intn(2) == 0 {
				kv.Set(key, rng.Int63n(1000))
			} else {
				kv.Add(key, rng.Int63n(100)-50)
			}
		}
		snap := kv.AppendSnapshot(nil)
		re := NewKV()
		if err := re.Restore(snap); err != nil {
			return false
		}
		return re.Equal(kv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKVRestoreDiscardsLaterState(t *testing.T) {
	kv := NewKV()
	kv.Set("a", 1)
	snap := kv.AppendSnapshot(nil)
	kv.Set("a", 99)
	kv.Set("b", 2)
	if err := kv.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get("a"); v != 1 {
		t.Fatalf("a = %d after restore, want 1", v)
	}
	if _, ok := kv.Get("b"); ok {
		t.Fatal("b should be gone after restore")
	}
	if kv.Ops() != 1 {
		t.Fatalf("Ops = %d after restore, want 1", kv.Ops())
	}
}

func TestKVRestoreRejectsGarbage(t *testing.T) {
	kv := NewKV()
	if err := kv.Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot should be rejected")
	}
	if err := kv.Restore(nil); err == nil {
		t.Fatal("empty snapshot should be rejected")
	}
}

func TestKVEmptySnapshot(t *testing.T) {
	kv := NewKV()
	re := NewKV()
	re.Set("x", 1)
	if err := re.Restore(kv.AppendSnapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 || re.Ops() != 0 {
		t.Fatal("restore of empty snapshot should empty the store")
	}
}

// TestKVRestoreSameKeysAllocatesNothing: a snapshot of the store's own keys
// in their order — what a recovery restores — is written into the existing
// slots and allocates nothing; cut anywhere, it is refused and leaves the
// store as it was, and a snapshot of other keys of the same count still
// restores whole.
func TestKVRestoreSameKeysAllocatesNothing(t *testing.T) {
	kv := NewKV()
	for i := 0; i < 64; i++ {
		kv.Set(fmt.Sprintf("key-%04d", i), int64(i))
	}
	snap := kv.AppendSnapshot(nil)
	kv.Add("key-0007", 100)
	kv.Add("key-0063", -5)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := kv.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("restoring a same-key snapshot: %v allocs/op, want 0", allocs)
	}
	if got := kv.AppendSnapshot(nil); !bytes.Equal(got, snap) {
		t.Fatal("in-place restore did not reproduce the snapshot")
	}

	kv.Add("key-0001", 1)
	before := kv.AppendSnapshot(nil)
	for cut := 0; cut < len(snap); cut++ {
		if err := kv.Restore(snap[:cut]); err == nil {
			t.Fatalf("cut at %d of %d: restored without error", cut, len(snap))
		}
		if !bytes.Equal(kv.AppendSnapshot(nil), before) {
			t.Fatalf("cut at %d of %d: a refused restore changed the store", cut, len(snap))
		}
	}
	if err := kv.Restore(append(append([]byte(nil), snap...), 0)); err == nil {
		t.Fatal("trailing byte: restored without error")
	}

	other := NewKV()
	for i := 0; i < 64; i++ {
		other.Set(fmt.Sprintf("key-%04d", i+1), int64(-i))
	}
	if err := kv.Restore(other.AppendSnapshot(nil)); err != nil || !kv.Equal(other) {
		t.Fatalf("a snapshot of other keys did not restore whole: %v", err)
	}
}
