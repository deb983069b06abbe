package bench

import (
	"fmt"
	"math/rand"
	"os"
	"sync"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/runtime/history"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/logstore"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// DefaultSizes is the process-count sweep: the paper's cluster sizes (4, 8)
// and the production-scale extrapolation up to 1024. Past n=128 the size-n
// vector every message carries (the Strom–Yemini overhead) dominates the
// dense paths; the delta-path cases alongside them are what must stay flat
// there — a reintroduced O(n) cost shows up in the ns/op column at the
// large sizes.
var DefaultSizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}

// stateBytes is the opaque application state saved with benchmarked
// checkpoints; 256 B models a small application snapshot.
const stateBytes = 256

// Suite builds the full case list: every hot path at every size, in
// deterministic order (path-major, then n ascending) so result diffs are
// stable.
func Suite(sizes []int) []Case {
	var cases []Case
	addTo := func(path string, slack float64, maxN int, mk func(n int) func(*T)) {
		for _, n := range sizes {
			if n > maxN {
				continue
			}
			cases = append(cases, Case{Path: path, N: n, AllocSlack: slack, Fn: mk(n)})
		}
	}
	const noCap = 1 << 30
	add := func(path string, slack float64, mk func(n int) func(*T)) {
		addTo(path, slack, noCap, mk)
	}

	// The DV piggyback merge, exactly as the per-message delivery path
	// performs it: fold the received vector in and report which entries
	// rose (what RDT-LGC's OnNewInfo consumes).
	add("vclock/merge", 0, mergeCase)
	// The sparse form: a compressed delivery merges only the changed
	// entries, so the cost is O(changed) — flat across the size sweep.
	add("vclock/merge-delta", 0, mergeDeltaCase)
	// The DV clone every send piggybacks.
	add("vclock/clone", 0, cloneCase)
	// FDAS's forced-checkpoint decision on delivery: the new-information
	// scan over the piggybacked vector (Algorithm 4's test).
	add("protocol/fdas-decision", 0, fdasCase)
	// RDT-LGC's collect path: the release/link bookkeeping per delivery
	// carrying new causal information, plus the per-checkpoint CCB work.
	add("core/collect", 0, collectCase)
	// Checkpoint record encoding + decoding (the storage wire format).
	add("storage/encode", 0, encodeCase)
	// Group-commit durable saves on the segmented log store: concurrent
	// savers stage records the committer goroutine batches under one fsync,
	// so ns/op is the acknowledged per-save latency with the sync cost
	// amortized across the batch. Disk- and scheduler-bound, so only
	// allocations gate; the slack absorbs batch-boundary jitter (whether a
	// save opens a batch or joins one changes its allocation count).
	add("storage/save-group", 3, saveGroupCase)
	// The collector's steady state on the log store: every save is followed
	// by the delete of the checkpoint it made obsolete. The delete stages a
	// tombstone that rides the next save's batch, so the cycle is one flush
	// (a no-op here: the CPU and hand-off cost is what shows) and one
	// allocation, the index entry. Scheduler-bound: allocations gate.
	add("storage/delete-log", 1, deleteLogCase)
	// Log crash recovery: open a segmented log holding delta-chained
	// checkpoints, verify every batch checksum and rebuild the index — what
	// a restarting process pays before rejoining.
	add("storage/replay", 2, replayCase)
	// The shared middleware kernel's end-to-end delivery path: FIFO
	// bookkeeping-free full-vector deliver — forced-checkpoint decision,
	// merge, RDT-LGC collect, periodic forced checkpoints — exactly what
	// both engines now execute per message. Forced-checkpoint saves hit
	// the in-memory store, whose map growth adds slight allocation jitter.
	add("node/deliver", 1, nodeDeliverCase)
	// A whole kernel checkpoint with an application attached: a 170-key KV
	// (≈4 KiB) snapshotted into the kernel's scratch buffer, encoded and
	// group-committed on a log store with a no-op sync, then RDT-LGC's
	// per-checkpoint work and the collected checkpoint's tombstone. The
	// commit crosses to the committer goroutine and back, so ns/op is
	// scheduler-bound and only allocations gate.
	add("node/checkpoint-kv", 1, nodeCheckpointKVCase)
	// The kernel's compressed send path: incremental encode against the
	// per-destination state, plus the receiving kernel's sparse expand,
	// FIFO verification and merge — the hot path of WithCompression runs.
	add("node/send-compressed", 1, nodeSendCompressedCase)
	// The same path with the shape of uniform traffic: n kernels, one
	// message in flight per kernel, seeded uniform destinations, every
	// delivery followed by the receiver's next send. A pair is used once in
	// ~n sends, so nearly the whole vector moves between two of its
	// messages (entries/msg ≈ n−3) and the encode's change-log window is
	// tens of times n — the case above, at one entry per message, never
	// sees that. The driver recycles entry buffers and RDT-LGC collects
	// what FDAS forces, so the whole step allocates nothing. Capped at 128:
	// set-up syncs n² pairs at n entries each.
	addTo("node/send-compressed-uniform", 0, 128, nodeSendCompressedUniformCase)
	// TCP mesh framing round trip (encode + decode of one message).
	add("transport/roundtrip", 0, transportCase)
	// Sparse frame round trip: a handful of changed entries instead of a
	// size-n vector, so framing cost is O(changed).
	add("transport/roundtrip-sparse", 0, transportSparseCase)
	// Live-runtime end-to-end delivery: send through the asynchronous
	// in-process network, forced-checkpoint decision, merge, collect.
	// Concurrent (sender-pool workers), so ns/op is scheduler-bound and
	// the alloc gate allows slight scheduling noise. The snapshot
	// freelist keeps the piggyback clone out of the per-message allocs.
	add("runtime/delivery", 2, deliveryCase)
	// The same live path with compressed piggybacks: encode O(changed) at
	// send, sparse decision + merge at delivery.
	add("runtime/delivery-compressed", 2, deliveryCompressedCase)
	// What one message adds to the live cluster's history: a send event in
	// the sender's log and a receive event in the receiver's, 16 bytes
	// each into a chunk. No allocation except a fresh chunk every 256
	// events, so allocs/op is ~0.008. The cost does not depend on n; one
	// size is measured.
	addTo("runtime/history-record", 0, 4, historyRecordCase)
	// What a recovery session pays to cut a rolled-back process's history:
	// a log holding 10^5 events loses a 64-event tail back to its last
	// checkpoint (re-recorded each iteration, so ns/op is 64 records plus
	// the cut). The cut walks back from the tail, so the 10^5 events before
	// it cost nothing, and nothing is allocated.
	addTo("runtime/session-truncate", 0, 4, sessionTruncateCase)
	// Deterministic simulator: a full uniform-workload run per iteration
	// (FDAS + RDT-LGC), the grid cell the sweep experiments are made of.
	// Thousands of allocs per run amortize fractionally, so a slack of 2
	// absorbs low-iteration jitter while +1 alloc per message (hundreds
	// per run) still fails loudly. Capped at 256: one run is a whole
	// 20n-operation experiment, which at n=1024 costs most of a second —
	// the per-message paths above are what the large sizes gate.
	addTo("sim/run", 2, 256, simCase(false))
	// The same grid cell with compressed piggybacks: the deterministic
	// engine's lazy encode (snapshot + send-time log position) end to end.
	addTo("sim/run-compressed", 2, 256, simCase(true))

	return cases
}

func mergeCase(n int) func(*T) {
	return func(t *T) {
		local := vclock.New(n)
		base := vclock.New(n)
		msg := vclock.New(n)
		for j := 0; j < n; j++ {
			base[j] = j
			msg[j] = j // equal — no new info
			if j%2 == 1 {
				msg[j] = j + 3 // half the entries carry new info
			}
		}
		buf := make([]int, 0, n) // the per-process scratch the call sites reuse
		t.Start()
		for i := 0; i < t.N; i++ {
			local.CopyFrom(base) // rearm so the merge has work to do
			buf = local.MergeAppend(msg, buf[:0])
			Sink += len(buf)
		}
	}
}

func mergeDeltaCase(n int) func(*T) {
	return func(t *T) {
		local := vclock.New(n)
		base := vclock.New(n)
		for j := 0; j < n; j++ {
			base[j] = j
		}
		// Four changed entries, whatever the system size — the sparse
		// client-server shape, where a message moves a handful of entries.
		d := vclock.Delta{}
		for i := 0; i < 4 && i < n; i++ {
			k := i * (n / 4)
			if k >= n {
				k = n - 1
			}
			d = append(d, vclock.Entry{K: k, V: k + 3})
		}
		buf := make([]int, 0, n)
		local.CopyFrom(base)
		t.Start()
		for i := 0; i < t.N; i++ {
			// Rearm only the touched entries, so the measured loop is the
			// sparse merge alone — O(changed) end to end.
			for _, e := range d {
				local[e.K] = base[e.K]
			}
			buf = d.MergeAppend(local, buf[:0])
			Sink += len(buf)
		}
	}
}

func cloneCase(n int) func(*T) {
	return func(t *T) {
		dv := vclock.New(n)
		for j := range dv {
			dv[j] = j
		}
		t.Start()
		for i := 0; i < t.N; i++ {
			Sink += len(dv.Clone())
		}
	}
}

func fdasCase(n int) func(*T) {
	return func(t *T) {
		p := protocol.NewFDAS()
		local := vclock.New(n)
		for j := range local {
			local[j] = j + 1
		}
		// The piggyback carries no new information, so the decision scans
		// the whole vector — FDAS's worst case.
		pb := protocol.Piggyback{DV: local.Clone()}
		t.Start()
		for i := 0; i < t.N; i++ {
			p.OnSend() // the interval has a send, so the scan actually runs
			if p.ForcedBeforeDelivery(local, pb) {
				Sink++
			}
			p.OnCheckpoint()
		}
	}
}

func collectCase(n int) func(*T) {
	return func(t *T) {
		st := storage.NewMemStore()
		if err := st.Save(storage.Checkpoint{Process: 0, Index: 0, DV: vclock.New(n)}); err != nil {
			t.Fatalf("save: %v", err)
		}
		lgc := core.New(0, n, st)
		dv := vclock.New(n)
		dv[0] = 1
		inc := make([]int, 1)
		idx := 0
		t.Start()
		for i := 0; i < t.N; i++ {
			// One delivery carrying new info about a rotating peer...
			j := 1 + i%(n-1)
			dv[j]++
			inc[0] = j
			if err := lgc.OnNewInfo(inc, dv); err != nil {
				t.Fatalf("OnNewInfo: %v", err)
			}
			// ...and every fourth event a checkpoint (Algorithm 2's other
			// driver), so CCBs are created, released and collected.
			if i%4 == 3 {
				idx++
				if err := st.Save(storage.Checkpoint{Process: 0, Index: idx, DV: dv}); err != nil {
					t.Fatalf("save: %v", err)
				}
				if err := lgc.OnCheckpoint(idx, dv); err != nil {
					t.Fatalf("OnCheckpoint: %v", err)
				}
				dv[0]++
			}
		}
		t.Metric("retained", float64(lgc.RetainedCount()))
	}
}

func encodeCase(n int) func(*T) {
	return func(t *T) {
		cp := storage.Checkpoint{
			Process: 1, Index: 42,
			DV:    vclock.New(n),
			State: make([]byte, stateBytes),
		}
		for j := range cp.DV {
			cp.DV[j] = j
		}
		t.Start()
		for i := 0; i < t.N; i++ {
			b := storage.EncodeCheckpoint(cp)
			out, err := storage.DecodeCheckpoint(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			Sink += out.Index
		}
	}
}

// rehydrateCkpts is the store size of the replay case: what a process
// has retained when it crashes. E1 measures RDT-LGC's steady-state retained
// count at a handful per process across every workload — holding it fixed
// makes the size sweep isolate the per-record cost of the size-n vectors,
// which is the quantity the delta format attacks.
const rehydrateCkpts = 16

func saveGroupCase(n int) func(*T) {
	return func(t *T) {
		dir, err := os.MkdirTemp("", "bench-save-group-")
		if err != nil {
			t.Fatalf("tempdir: %v", err)
		}
		defer func() { _ = os.RemoveAll(dir) }() // runs after Stop; also on Fatalf
		ls, err := logstore.Open(dir, logstore.Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		const workers = 8
		const window = 16      // trailing live checkpoints per worker
		const stride = 1 << 24 // disjoint index ranges per worker
		per := make([]int, workers)
		for i := 0; i < t.N; i++ {
			per[i%workers]++
		}
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		t.Start()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w, ops int) {
				defer wg.Done()
				cp := storage.Checkpoint{Process: 0, DV: vclock.New(n), State: make([]byte, stateBytes)}
				for i := 0; i < ops; i++ {
					// Every entry moves: full records, the dense gauge.
					for j := range cp.DV {
						cp.DV[j]++
					}
					cp.Index = w*stride + i
					if err := ls.Save(cp); err != nil {
						errs <- err
						return
					}
					if i >= window {
						if err := ls.Delete(w*stride + i - window); err != nil {
							errs <- err
							return
						}
					}
				}
			}(w, per[w])
		}
		wg.Wait()
		t.Stop()
		select {
		case err := <-errs:
			t.Fatalf("save-group: %v", err)
		default:
		}
		if err := ls.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// openBenchLog opens a log store with the device flush stubbed out in a
// fresh temporary directory; cleanup closes the store and removes it.
func openBenchLog(t *T, pattern string) (ls *logstore.LogStore, cleanup func()) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		t.Fatalf("tempdir: %v", err)
	}
	ls, err = logstore.Open(dir, logstore.Options{Sync: func(*os.File) error { return nil }})
	if err != nil {
		_ = os.RemoveAll(dir)
		t.Fatalf("open: %v", err)
	}
	return ls, func() {
		_ = ls.Close()
		_ = os.RemoveAll(dir)
	}
}

func deleteLogCase(n int) func(*T) {
	return func(t *T) {
		ls, cleanup := openBenchLog(t, "bench-delete-log-")
		defer cleanup() // runs after Stop; also on Fatalf
		cp := storage.Checkpoint{Process: 0, DV: vclock.New(n), State: make([]byte, stateBytes)}
		cycle := func(i int) {
			cp.DV[0] = i + 1 // one entry moves: the collector's usual delta record
			cp.Index = i
			if err := ls.Save(cp); err != nil {
				t.Fatalf("save: %v", err)
			}
			if i > 0 {
				if err := ls.Delete(i - 1); err != nil {
					t.Fatalf("delete: %v", err)
				}
			}
		}
		const warm = 64 // fills the batch freelist and the index
		for i := 0; i < warm; i++ {
			cycle(i)
		}
		t.Start()
		for i := 0; i < t.N; i++ {
			cycle(warm + i)
		}
		t.Stop()
		t.Metric("retained", float64(ls.Stats().Live))
	}
}

func replayCase(n int) func(*T) {
	return func(t *T) {
		dir, err := os.MkdirTemp("", "bench-replay-")
		if err != nil {
			t.Fatalf("tempdir: %v", err)
		}
		defer func() { _ = os.RemoveAll(dir) }() // runs after Stop; also on Fatalf
		ls, err := logstore.Open(dir, logstore.Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		dv := vclock.New(n)
		for i := 0; i < rehydrateCkpts; i++ {
			// One entry moves per checkpoint: the log holds chains of
			// single-entry deltas with a full record every K-th, so replay
			// decodes O(changed) per record.
			dv[0] = i + 1
			if err := ls.Save(storage.Checkpoint{Process: 0, Index: i, DV: dv, State: make([]byte, stateBytes)}); err != nil {
				t.Fatalf("save: %v", err)
			}
		}
		if err := ls.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		t.Start()
		for i := 0; i < t.N; i++ {
			re, err := logstore.Open(dir, logstore.Options{NoCompact: true})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			Sink += re.Stats().Live
			if err := re.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
		t.Stop()
	}
}

// benchKernel assembles a kernel with the production stack (FDAS +
// RDT-LGC on an in-memory store), the configuration both engine-level
// benchmarks ultimately exercise.
func benchKernel(t *T, id, n int, compress bool, drv node.Driver) *node.Kernel {
	k, err := node.New(node.Config{
		Driver: drv,
		ID:     id, N: n,
		Store:    storage.NewMemStore(),
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC: func(self, nn int, st storage.Store) gc.Local {
			return core.New(self, nn, st)
		},
		Compress: compress,
	})
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	return k
}

// kvKeys is the application pre-fill of the checkpoint case: 170 eight-byte
// keys make a snapshot of about 4 KiB.
const kvKeys = 170

func nodeCheckpointKVCase(n int) func(*T) {
	return func(t *T) {
		ls, cleanup := openBenchLog(t, "bench-checkpoint-kv-")
		defer cleanup() // runs after Stop; also on Fatalf
		k, err := node.New(node.Config{
			ID: 0, N: n, Store: ls,
			Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
			LocalGC: func(self, nn int, st storage.Store) gc.Local {
				return core.New(self, nn, st)
			},
			NewApp: func(int) app.App {
				kv := app.NewKV()
				for i := 0; i < kvKeys; i++ {
					kv.Set(fmt.Sprintf("key-%04d", i), 1)
				}
				return kv
			},
		})
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
		kv := k.App().(*app.KV)
		checkpoint := func() {
			kv.Add("key-0007", 1)
			if _, err := k.Checkpoint(true); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		for i := 0; i < 64; i++ {
			checkpoint() // warms the scratch buffer, the batch freelist, the index
		}
		t.Start()
		for i := 0; i < t.N; i++ {
			checkpoint()
		}
		t.Stop()
		t.Metric("retained", float64(ls.Stats().Live))
	}
}

func nodeDeliverCase(n int) func(*T) {
	return func(t *T) {
		k := benchKernel(t, 0, n, false, nil)
		peer := vclock.New(n)
		pb := node.Piggyback{DV: peer}
		t.Start()
		for i := 0; i < t.N; i++ {
			// One delivery carrying new info about a rotating peer...
			j := 1 + i%(n-1)
			peer[j]++
			if i%8 == 7 {
				// ...and periodically a send arming FDAS, so the next
				// delivery takes the forced-checkpoint branch and the
				// collector's per-checkpoint work runs too.
				if _, err := k.Send(j); err != nil {
					t.Fatalf("send: %v", err)
				}
			}
			if _, err := k.Deliver(pb); err != nil {
				t.Fatalf("deliver: %v", err)
			}
		}
		t.Metric("retained", float64(len(k.Store().Indices())))
	}
}

func nodeSendCompressedCase(n int) func(*T) {
	return func(t *T) {
		a := benchKernel(t, 0, n, true, nil)
		b := benchKernel(t, 1, n, true, nil)
		t.Start()
		for i := 0; i < t.N; i++ {
			// A checkpoint changes exactly one entry of a's vector, so the
			// incremental encode ships one entry instead of n.
			if _, err := a.Checkpoint(true); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			pb, err := a.Send(1)
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			if _, err := b.Deliver(pb); err != nil {
				t.Fatalf("deliver: %v", err)
			}
		}
		t.Metric("entries/msg", float64(a.PiggybackEntries())/float64(t.N))
	}
}

// entryRecycler is the smallest node.Driver that gives compressed
// piggybacks the buffer lifecycle the live runtime gives them: the case
// returns a delivered message's entries, the next send draws them again.
type entryRecycler struct{ free [][]node.Entry }

func (d *entryRecycler) CloneDV(src vclock.DV) vclock.DV   { return src.Clone() }
func (d *entryRecycler) CheckpointState() []byte           { return nil }
func (d *entryRecycler) OnKernelCheckpoint(int, int, bool) {}

func (d *entryRecycler) EntryBuf() []node.Entry {
	k := len(d.free)
	if k == 0 {
		return nil
	}
	buf := d.free[k-1]
	d.free = d.free[:k-1]
	return buf
}

func nodeSendCompressedUniformCase(n int) func(*T) {
	return func(t *T) {
		drv := &entryRecycler{}
		ks := make([]*node.Kernel, n)
		for i := range ks {
			ks[i] = benchKernel(t, i, n, true, drv)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		type msg struct {
			to int
			pb node.Piggyback
		}
		send := func(from int) msg {
			to := rng.Intn(n - 1)
			if to >= from {
				to++
			}
			pb, err := ks[from].Send(to)
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			return msg{to: to, pb: pb}
		}
		// The messages in flight, oldest at head: delivering in global send
		// order keeps every pair FIFO.
		ring := make([]msg, n)
		for i := range ring {
			ring[i] = send(i)
		}
		head := 0
		step := func() {
			m := ring[head]
			if _, err := ks[m.to].Deliver(m.pb); err != nil {
				t.Fatalf("deliver: %v", err)
			}
			drv.free = append(drv.free, m.pb.Entries[:0])
			ring[head] = send(m.to)
			head = (head + 1) % n
		}
		for i := 0; i < 16*n*n; i++ {
			step() // sync the pairs; grow logs, buffers and stores to steady size
		}
		sent := 0
		for _, k := range ks {
			sent -= k.PiggybackEntries()
		}
		t.Start()
		for i := 0; i < t.N; i++ {
			step()
		}
		t.Stop()
		for _, k := range ks {
			sent += k.PiggybackEntries()
		}
		t.Metric("entries/msg", float64(sent)/float64(t.N))
	}
}

func transportCase(n int) func(*T) {
	return func(t *T) {
		m := transport.Message{
			From: 0, To: 1, Msg: 7, Epoch: 3, Index: 2,
			DV:      make([]int, n),
			Payload: make([]byte, 64),
		}
		for j := range m.DV {
			m.DV[j] = j
		}
		t.Start()
		for i := 0; i < t.N; i++ {
			b := transport.Encode(m)
			out, err := transport.Decode(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			Sink += out.To
		}
	}
}

func transportSparseCase(n int) func(*T) {
	return func(t *T) {
		m := transport.Message{
			From: 0, To: 1, Msg: 7, Epoch: 3, Index: 2, Sparse: true,
			Payload: make([]byte, 64),
		}
		// Four changed entries regardless of n: the steady-state sparse
		// frame of client-server traffic.
		for i := 0; i < 4 && i < n; i++ {
			m.Entries = append(m.Entries, vclock.Entry{K: i, V: i + 1})
		}
		t.Start()
		for i := 0; i < t.N; i++ {
			b := transport.Encode(m)
			out, err := transport.Decode(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			Sink += out.To
		}
	}
}

func deliveryCase(n int) func(*T) {
	return func(t *T) {
		c, err := runtime.NewCluster(runtime.Config{
			N:   n,
			Net: runtime.NetworkOptions{Seed: 1},
			// The real collector, so the end-to-end path includes the
			// RDT-LGC collect work a production delivery performs.
			LocalGC: func(self, nn int, st storage.Store) gc.Local {
				return core.New(self, nn, st)
			},
		})
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		// One round through every pair before the window opens: the sender
		// pool's workers spawn and the snapshot freelist fills, so the
		// measurement sees the steady-state per-message cost rather than
		// the cluster's one-time cold start.
		warmDelivery(t, c, n)
		t.Start()
		for i := 0; i < t.N; i++ {
			from := i % n
			if err := c.Node(from).Send((from + 1) % n); err != nil {
				t.Fatalf("send: %v", err)
			}
			// Periodic checkpoints keep the DVs moving, so deliveries keep
			// carrying new information and the collector keeps working.
			if i%8 == 7 {
				if err := c.Node(from).Checkpoint(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
		}
		c.Quiesce()
		t.Stop()
	}
}

func historyRecordCase(n int) func(*T) {
	return func(t *T) {
		logs := make([]history.Log, n)
		tick := uint64(0)
		t.Start()
		for i := 0; i < t.N; i++ {
			tick++
			logs[i%n].Send(tick)
			tick++
			logs[(i+1)%n].Recv(tick, tick-1)
		}
		t.Stop()
		Sink += logs[0].Len()
	}
}

func sessionTruncateCase(int) func(*T) {
	return func(t *T) {
		const events, tail = 100_000, 64
		var l history.Log
		tick := uint64(0)
		for l.Len() < events-1 {
			tick++
			if l.Len()%50 == 0 {
				l.Checkpoint(tick)
			} else {
				l.Send(tick)
			}
		}
		tick++
		l.Checkpoint(tick)
		line := l.Checkpoints()
		t.Start()
		for i := 0; i < t.N; i++ {
			for k := 0; k < tail; k++ {
				tick++
				l.Send(tick)
			}
			Sink += l.CutAfterCheckpoint(line)
		}
		t.Stop()
		if l.Len() != events {
			t.Fatalf("log holds %d events after the cuts, want %d", l.Len(), events)
		}
	}
}

// warmDelivery drives one message across every ring pair and waits for the
// dust to settle.
func warmDelivery(t *T, c *runtime.Cluster, n int) {
	for i := 0; i < n; i++ {
		if err := c.Node(i).Send((i + 1) % n); err != nil {
			t.Fatalf("warm-up send: %v", err)
		}
	}
	c.Quiesce()
}

func deliveryCompressedCase(n int) func(*T) {
	return func(t *T) {
		c, err := runtime.NewCluster(runtime.Config{
			N:        n,
			Net:      runtime.NetworkOptions{Seed: 1},
			Compress: true,
			LocalGC: func(self, nn int, st storage.Store) gc.Local {
				return core.New(self, nn, st)
			},
		})
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		// Warm every pair the loop uses: the first message of a pair is a
		// full sync (all non-zero entries, fresh per-pair state), so cold
		// pairs would dominate low-iteration runs at large n. Steady-state
		// compressed delivery is what this case gates.
		for from := 0; from < n; from++ {
			if err := c.Node(from).Send((from + 1) % n); err != nil {
				t.Fatalf("warmup send: %v", err)
			}
		}
		c.Quiesce()
		t.Start()
		for i := 0; i < t.N; i++ {
			from := i % n
			if err := c.Node(from).Send((from + 1) % n); err != nil {
				t.Fatalf("send: %v", err)
			}
			if i%8 == 7 {
				if err := c.Node(from).Checkpoint(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
		}
		c.Quiesce()
		t.Stop()
	}
}

// simPaperMetrics caches, per size and workload, the paper-predicted
// quantities of the benchmarked run (measured once through the
// oracle-backed pipeline — too expensive to recompute on every
// calibration pass).
var simPaperMetrics = map[[2]int]metrics.Report{}

func simCase(compress bool) func(n int) func(*T) {
	return func(n int) func(*T) {
		return func(t *T) {
			// The dense case runs the historical uniform grid cell; the
			// compressed one runs client-server traffic — the repeat-pair
			// sparse shape compression targets, and (unlike uniform
			// scripts) per-pair FIFO, which compression requires.
			kind, key := workload.Uniform, [2]int{n, 0}
			if compress {
				kind, key = workload.ClientServer, [2]int{n, 1}
			}
			script := workload.Generate(kind, workload.Options{N: n, Ops: 20 * n, Seed: 29})
			rep, ok := simPaperMetrics[key]
			if !ok {
				var err error
				rep, err = metrics.Measure(metrics.MeasureOptions{N: n, Collector: metrics.RDTLGC, Script: script})
				if err != nil {
					t.Fatalf("measure: %v", err)
				}
				simPaperMetrics[key] = rep
			}
			cfg := sim.Config{
				N:        n,
				Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
				LocalGC: func(self, nn int, st storage.Store) gc.Local {
					return core.New(self, nn, st)
				},
				Compress: compress,
			}
			t.Start()
			for i := 0; i < t.N; i++ {
				r, err := sim.NewRunner(cfg)
				if err != nil {
					t.Fatalf("runner: %v", err)
				}
				if err := r.Run(script); err != nil {
					t.Fatalf("run: %v", err)
				}
			}
			t.Stop()
			t.Metric("retained-mean", rep.PerProcRetained.Mean())
			t.Metric("collect-ratio", rep.CollectionRatio())
		}
	}
}
