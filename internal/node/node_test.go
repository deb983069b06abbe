package node_test

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
	"repro/internal/vclock"
)

func kernel(t testing.TB, id, n int, compress bool) *node.Kernel {
	t.Helper()
	k, err := node.New(node.Config{
		ID: id, N: n,
		Store:    storage.NewMemStore(),
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:  func(self, nn int, st storage.Store) gc.Local { return core.New(self, nn, st) },
		Compress: compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestNewStoresInitialCheckpoint checks the model's precondition: s^0 is in
// stable storage before any activity and the kernel starts in interval 1.
func TestNewStoresInitialCheckpoint(t *testing.T) {
	k := kernel(t, 0, 3, false)
	idx := k.Store().Indices()
	if len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("store holds %v, want [0]", idx)
	}
	want := vclock.DV{1, 0, 0}
	if !k.DV().Equal(want) {
		t.Fatalf("initial DV = %v, want %v", k.DV(), want)
	}
	if k.LastStable() != 0 {
		t.Fatalf("lastS = %d, want 0", k.LastStable())
	}
}

// TestConfigValidation checks the kernel refuses unusable configurations.
func TestConfigValidation(t *testing.T) {
	if _, err := node.New(node.Config{ID: 0, N: 0, Store: storage.NewMemStore()}); err == nil {
		t.Error("N=0 should be rejected")
	}
	if _, err := node.New(node.Config{ID: 3, N: 2, Store: storage.NewMemStore()}); err == nil {
		t.Error("out-of-range ID should be rejected")
	}
	if _, err := node.New(node.Config{ID: 0, N: 2}); err == nil {
		t.Error("nil store should be rejected")
	}
}

// TestDeliverEquivalence runs the same traffic through a full-vector pair
// and a compressed pair of kernels and checks bit-for-bit equivalent
// middleware state: same vectors, same forced checkpoints, same stores —
// the Singhal–Kshemkalyani guarantee under FIFO, now at the kernel level.
func TestDeliverEquivalence(t *testing.T) {
	const n = 2
	run := func(compress bool) [2]*node.Kernel {
		ks := [2]*node.Kernel{kernel(t, 0, n, compress), kernel(t, 1, n, compress)}
		step := func(from, to int) {
			pb, err := ks[from].Send(to)
			if err != nil {
				t.Fatal(err)
			}
			if !compress {
				// Full-vector engines may defer destination binding; both
				// forms must behave identically.
				if pb.Compressed {
					t.Fatal("uncompressed kernel produced a sparse piggyback")
				}
			}
			if _, err := ks[to].Deliver(pb); err != nil {
				t.Fatal(err)
			}
		}
		ckpt := func(p int) {
			if _, err := ks[p].Checkpoint(true); err != nil {
				t.Fatal(err)
			}
		}
		step(0, 1)
		ckpt(1)
		step(1, 0)
		step(0, 1) // FDAS: send in interval + new info forces a checkpoint
		ckpt(0)
		step(1, 0)
		step(0, 1)
		return ks
	}
	full, comp := run(false), run(true)
	for i := 0; i < n; i++ {
		if !full[i].DV().Equal(comp[i].DV()) {
			t.Errorf("p%d DV full %v != compressed %v", i, full[i].DV(), comp[i].DV())
		}
		fb, ff := full[i].Counts()
		cb, cf := comp[i].Counts()
		if fb != cb || ff != cf {
			t.Errorf("p%d checkpoint counts diverge: full (%d,%d) vs compressed (%d,%d)", i, fb, ff, cb, cf)
		}
	}
	if comp[0].PiggybackEntries() > full[0].PiggybackEntries() {
		t.Errorf("compression grew the piggyback: %d > %d",
			comp[0].PiggybackEntries(), full[0].PiggybackEntries())
	}
}

// TestDeliverRejectsGapsAndReordering checks the per-pair FIFO contract is
// enforced at delivery: a skipped or repeated compressed message fails
// loudly instead of silently corrupting causal knowledge.
func TestDeliverRejectsGapsAndReordering(t *testing.T) {
	a, b := kernel(t, 0, 2, true), kernel(t, 1, 2, true)
	pb1, err := a.Send(1)
	if err != nil {
		t.Fatal(err)
	}
	pb2, err := a.Send(1)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver the second message first: a gap from the receiver's view.
	if _, err := b.Deliver(pb2); err == nil {
		t.Fatal("out-of-order compressed delivery should fail")
	}
	if _, err := b.Deliver(pb1); err != nil {
		t.Fatalf("in-order delivery failed: %v", err)
	}
	// A replay of the same message is an inversion.
	if _, err := b.Deliver(pb1); err == nil {
		t.Fatal("duplicate compressed delivery should fail")
	}
}

// TestDeliverSparseToFullKernel checks a compressed piggyback handed to a
// kernel that is not compressing fails instead of being misread.
func TestDeliverSparseToFullKernel(t *testing.T) {
	a := kernel(t, 0, 2, true)
	b := kernel(t, 1, 2, false)
	pb, err := a.Send(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Deliver(pb); err == nil {
		t.Fatal("sparse piggyback on a non-compressing kernel should fail")
	} else if !strings.Contains(err.Error(), "non-compressing") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCrashRehydrateRollback walks the crash lifecycle: volatile state is
// discarded, rehydration resumes from the last stored checkpoint, and the
// rollback that a recovery session performs restores a consistent vector.
// The keep-everything collector is used so every index stays a valid
// rollback target.
func TestCrashRehydrateRollback(t *testing.T) {
	k, err := node.New(node.Config{
		ID: 0, N: 2,
		Store:    storage.NewMemStore(),
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	preDV := k.DV()
	k.CrashVolatile()
	if k.DV().Len() != 0 {
		t.Fatal("crash left a dependency vector behind")
	}
	if len(k.Store().Indices()) == 0 {
		t.Fatal("crash destroyed stable storage")
	}
	if err := k.Rehydrate(nil); err != nil {
		t.Fatal(err)
	}
	if !k.DV().Equal(preDV) {
		t.Fatalf("rehydrated DV %v, want %v (last checkpoint + resumed interval)", k.DV(), preDV)
	}
	if k.LastStable() != 2 {
		t.Fatalf("rehydrated lastS = %d, want 2", k.LastStable())
	}
	// A session rolls back to checkpoint 1: the store is trimmed and the
	// vector recreated from the stored one.
	if err := k.Rollback(1, nil); err != nil {
		t.Fatal(err)
	}
	if k.LastStable() != 1 {
		t.Fatalf("after rollback lastS = %d, want 1", k.LastStable())
	}
	want := vclock.DV{2, 0}
	if !k.DV().Equal(want) {
		t.Fatalf("after rollback DV = %v, want %v", k.DV(), want)
	}
}

// TestRehydratedAppRestoresTheRollbackTarget checks the crash lifecycle of
// an attached application: CrashVolatile hides it, Rehydrate takes the same
// object back, and the rollback restores the state of its own target —
// from the checkpoint Rehydrate read when the target is the newest, from
// the store when it is older.
func TestRehydratedAppRestoresTheRollbackTarget(t *testing.T) {
	for _, target := range []int{2, 1} {
		news := 0
		k, err := node.New(node.Config{
			ID: 0, N: 2,
			Store:    storage.NewMemStore(),
			Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
			NewApp: func(int) app.App {
				news++
				return app.NewKV()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		kv := k.App().(*app.KV)
		for v := int64(1); v <= 3; v++ {
			kv.Set("x", v) // checkpoint v holds x = v; x = 3 is lost with the crash
			if v < 3 {
				if _, err := k.Checkpoint(true); err != nil {
					t.Fatal(err)
				}
			}
		}
		k.CrashVolatile()
		if k.App() != nil {
			t.Fatal("a crashed kernel shows an application")
		}
		if err := k.Rehydrate(nil); err != nil {
			t.Fatal(err)
		}
		if k.App() != kv {
			t.Fatal("Rehydrate did not take the pre-crash application object back")
		}
		if err := k.Rollback(target, nil); err != nil {
			t.Fatal(err)
		}
		if v, _ := kv.Get("x"); v != int64(target) {
			t.Fatalf("rollback to checkpoint %d left x = %d, want %d", target, v, target)
		}
		if news != 1 {
			t.Fatalf("NewApp ran %d times, want once", news)
		}
	}
}

// TestResetCompressionRestartsPairs checks that after a reset the next
// message carries the full set of non-zero entries again, the property
// recovery sessions rely on.
func TestResetCompressionRestartsPairs(t *testing.T) {
	a, b := kernel(t, 0, 2, true), kernel(t, 1, 2, true)
	for i := 0; i < 3; i++ {
		pb, err := a.Send(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Deliver(pb); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
	}
	before := a.PiggybackEntries()
	a.ResetCompression()
	b.ResetCompression()
	pb, err := a.Send(1)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range a.DVRef() {
		if v != 0 {
			nonzero++
		}
	}
	if got := a.PiggybackEntries() - before; got != nonzero {
		t.Fatalf("post-reset piggyback carried %d entries, want all %d non-zero", got, nonzero)
	}
	if _, err := b.Deliver(pb); err != nil {
		t.Fatalf("post-reset delivery failed: %v", err)
	}
}

// recordingLocal is a collector that logs every OnCheckpoint and OnNewInfo
// call with its arguments before handing it to the collector it wraps.
type recordingLocal struct {
	gc.Local
	log []string
}

func (r *recordingLocal) OnCheckpoint(index int, dv vclock.DV) error {
	r.log = append(r.log, fmt.Sprintf("checkpoint %d %v", index, dv))
	return r.Local.OnCheckpoint(index, dv)
}

func (r *recordingLocal) OnNewInfo(increased []int, dv vclock.DV) error {
	r.log = append(r.log, fmt.Sprintf("newinfo %v %v", increased, dv))
	return r.Local.OnNewInfo(increased, dv)
}

// TestDeliverBatchMatchesSequential is DeliverBatch's differential oracle:
// the same seeded traffic — sends, basic checkpoints, and deliveries in
// per-pair FIFO order but randomly chunked into batches — runs through a
// message-by-message universe (Deliver) and a batched one (DeliverBatch),
// across every protocol, both piggyback encodings and three collectors.
// Vectors, checkpoint counts, stable indices, stored checkpoints and
// piggyback cost must all match bit for bit, and the recording collector
// ("rec") must see the same OnCheckpoint and OnNewInfo calls, with the same
// arguments, in the same order: a batch is its messages' deliveries, one by
// one, not a fold of them.
func TestDeliverBatchMatchesSequential(t *testing.T) {
	const n = 4
	protocols := map[string]func(int) protocol.Protocol{
		"none":    func(int) protocol.Protocol { return protocol.NewNone() },
		"cbr":     func(int) protocol.Protocol { return protocol.NewCBR() },
		"fdi":     func(int) protocol.Protocol { return protocol.NewFDI() },
		"fdas":    func(int) protocol.Protocol { return protocol.NewFDAS() },
		"russell": func(int) protocol.Protocol { return protocol.NewRussell() },
		"bcs":     func(int) protocol.Protocol { return protocol.NewBCS() },
	}
	collectors := map[string]func(self, nn int, st storage.Store) gc.Local{
		"core": func(self, nn int, st storage.Store) gc.Local { return core.New(self, nn, st) },
		"nogc": func(self, nn int, st storage.Store) gc.Local { return gc.NewNoGC(self, nn, st) },
		"rec":  nil, // a recordingLocal over core, built per subtest
	}
	for pname, proto := range protocols {
		for gname, lgc := range collectors {
			for _, compress := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/compress=%v", pname, gname, compress)
				t.Run(name, func(t *testing.T) {
					// recs holds the recording collectors in build order: the
					// sequential universe's n, then the batched one's.
					var recs []*recordingLocal
					newGC := lgc
					if newGC == nil {
						newGC = func(self, nn int, st storage.Store) gc.Local {
							r := &recordingLocal{Local: core.New(self, nn, st)}
							recs = append(recs, r)
							return r
						}
					}
					build := func() []*node.Kernel {
						ks := make([]*node.Kernel, n)
						for i := range ks {
							k, err := node.New(node.Config{
								ID: i, N: n,
								Store:    storage.NewMemStore(),
								Protocol: proto,
								LocalGC:  newGC,
								Compress: compress,
							})
							if err != nil {
								t.Fatal(err)
							}
							ks[i] = k
						}
						return ks
					}
					seq, bat := build(), build()
					// Per-receiver FIFO queues of undelivered piggybacks,
					// one per universe. Identical kernels produce identical
					// piggybacks, so the queues stay in lockstep.
					seqQ := make([][]node.Piggyback, n)
					batQ := make([][]node.Piggyback, n)
					rng := rand.New(rand.NewSource(int64(len(pname))*1000 + int64(len(gname))))
					flush := func(to int) {
						for _, pb := range seqQ[to] {
							if _, err := seq[to].Deliver(pb); err != nil {
								t.Fatalf("sequential deliver on p%d: %v", to, err)
							}
						}
						seqQ[to] = seqQ[to][:0]
						// The batched universe consumes the same messages in
						// the same order, but in random chunks of 1..4 —
						// single-message drains, same-sender runs and
						// cross-sender boundaries all get exercised.
						q := batQ[to]
						for len(q) > 0 {
							c := 1 + rng.Intn(4)
							if c > len(q) {
								c = len(q)
							}
							if err := bat[to].DeliverBatch(q[:c], nil); err != nil {
								t.Fatalf("batched deliver on p%d: %v", to, err)
							}
							q = q[c:]
						}
						batQ[to] = batQ[to][:0]
					}
					for op := 0; op < 600; op++ {
						switch r := rng.Intn(10); {
						case r < 6: // send
							from := rng.Intn(n)
							to := rng.Intn(n - 1)
							if to >= from {
								to++
							}
							pbS, err := seq[from].Send(to)
							if err != nil {
								t.Fatal(err)
							}
							pbB, err := bat[from].Send(to)
							if err != nil {
								t.Fatal(err)
							}
							seqQ[to] = append(seqQ[to], pbS)
							batQ[to] = append(batQ[to], pbB)
						case r < 8: // deliver everything queued at one process
							flush(rng.Intn(n))
						default: // basic checkpoint
							p := rng.Intn(n)
							if _, err := seq[p].Checkpoint(true); err != nil {
								t.Fatal(err)
							}
							if _, err := bat[p].Checkpoint(true); err != nil {
								t.Fatal(err)
							}
						}
					}
					for to := 0; to < n; to++ {
						flush(to)
					}
					for i := 0; i < n; i++ {
						if !seq[i].DV().Equal(bat[i].DV()) {
							t.Errorf("p%d DV: sequential %v != batched %v", i, seq[i].DV(), bat[i].DV())
						}
						sb, sf := seq[i].Counts()
						bb, bf := bat[i].Counts()
						if sb != bb || sf != bf {
							t.Errorf("p%d checkpoint counts: sequential (%d,%d) != batched (%d,%d)", i, sb, sf, bb, bf)
						}
						if seq[i].LastStable() != bat[i].LastStable() {
							t.Errorf("p%d last stable: sequential %d != batched %d", i, seq[i].LastStable(), bat[i].LastStable())
						}
						if seq[i].PiggybackEntries() != bat[i].PiggybackEntries() {
							t.Errorf("p%d piggyback entries: sequential %d != batched %d",
								i, seq[i].PiggybackEntries(), bat[i].PiggybackEntries())
						}
						si, bi := seq[i].Store().Indices(), bat[i].Store().Indices()
						if !reflect.DeepEqual(si, bi) {
							t.Errorf("p%d stored checkpoints: sequential %v != batched %v", i, si, bi)
						}
					}
					if recs != nil {
						if len(recs) != 2*n {
							t.Fatalf("%d recording collectors built, want %d", len(recs), 2*n)
						}
						for i := 0; i < n; i++ {
							sl, bl := recs[i].log, recs[n+i].log
							if len(sl) == 0 {
								t.Errorf("p%d: the recording collector saw no call", i)
							}
							if !reflect.DeepEqual(sl, bl) {
								t.Errorf("p%d collector calls differ: sequential %d calls, batched %d; first difference %s",
									i, len(sl), len(bl), firstDiff(sl, bl))
							}
						}
					}
				})
			}
		}
	}
}

// TestCheckpointAllocationBudget holds a whole checkpoint — 170-key
// application snapshot into the kernel's scratch buffer, record encode,
// group commit on a log store, collector work, the collected checkpoint's
// tombstone — to no allocation: the store holds its index entry by value.
func TestCheckpointAllocationBudget(t *testing.T) {
	ls, err := logstore.Open(t.TempDir(), logstore.Options{Sync: func(*os.File) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	k, err := node.New(node.Config{
		ID: 0, N: 4, Store: ls,
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:  func(self, nn int, st storage.Store) gc.Local { return core.New(self, nn, st) },
		NewApp: func(int) app.App {
			kv := app.NewKV()
			for i := 0; i < 170; i++ {
				kv.Set(fmt.Sprintf("key-%04d", i), 1)
			}
			return kv
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func() {
		k.App().(*app.KV).Add("key-0007", 1)
		if _, err := k.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		checkpoint() // warm the scratch buffer, the batch freelist, the index
	}
	if allocs := testing.AllocsPerRun(200, checkpoint); allocs != 0 {
		t.Fatalf("Kernel.Checkpoint, 170-key KV on a log store: %v allocs/op, want 0", allocs)
	}
	if live := ls.Stats().Live; live != 1 {
		t.Fatalf("a process that never communicates retains %d checkpoints, want 1", live)
	}
}

// firstDiff describes the first position where two call logs differ.
func firstDiff(a, b []string) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("at call %d: %q != %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("at call %d: one log ends", min(len(a), len(b)))
}
