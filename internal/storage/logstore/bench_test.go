package logstore

// The log store's two timed paths. Neither has an allocation pin of its
// own: a replay's count is proportional to the records it reads, and the
// concurrent group commit's depends on whether a save opens a batch or
// joins one — allocs_per_msg on the benchmark's durable-ckpt workload judges
// that. The steady save+delete cycle is pinned by TestSaveAllocationBudget.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

var benchSizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}

// BenchmarkReplay is crash recovery: open a log holding 16 checkpoints —
// what E1 measures a process to retain — verify every batch checksum and
// rebuild the index.
func BenchmarkReplay(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			ls, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			dv := vclock.New(n)
			for i := 0; i < 16; i++ {
				dv[0] = i + 1
				if err := ls.Save(storage.Checkpoint{Index: i, DV: dv, State: make([]byte, 256)}); err != nil {
					b.Fatal(err)
				}
			}
			if err := ls.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSaveGroup is the durable group commit: eight savers stage full
// records (every entry moves) that the committer batches under one fsync,
// each deleting behind a 16-checkpoint window, so ns/op is the acknowledged
// per-save latency with the flush amortized across the batch.
func BenchmarkSaveGroup(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ls, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			const workers, window = 8, 16
			const stride = 1 << 24 // disjoint index ranges per worker
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				ops := b.N / workers
				if w < b.N%workers {
					ops++
				}
				wg.Add(1)
				go func(w, ops int) {
					defer wg.Done()
					cp := storage.Checkpoint{DV: vclock.New(n), State: make([]byte, 256)}
					for i := 0; i < ops; i++ {
						for j := range cp.DV {
							cp.DV[j]++
						}
						cp.Index = w*stride + i
						if err := ls.Save(cp); err != nil {
							b.Error(err)
							return
						}
						if i >= window {
							if err := ls.Delete(cp.Index - window); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}(w, ops)
			}
			wg.Wait()
			b.StopTimer()
			if err := ls.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestLoadAllocationBudget pins the reads a restart makes once warm: LoadDV
// fills the caller's vector, and a Load whose checkpoint is released before
// the next one decodes into the released memory, so neither allocates on
// either store. A Load whose checkpoint is kept allocates its vector and its
// state, two allocations, on both.
func TestLoadAllocationBudget(t *testing.T) {
	const n, records = 32, 3
	ls, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	for _, st := range []storage.Store{storage.NewMemStore(), ls} {
		dv := vclock.New(n)
		for i := 0; i < records; i++ {
			dv[0] = i + 1
			if err := st.Save(storage.Checkpoint{Index: i, DV: dv, State: make([]byte, 4096)}); err != nil {
				t.Fatal(err)
			}
		}
		load := func(release bool) func() {
			return func() {
				for i := 0; i < records; i++ {
					cp, err := st.Load(i)
					if err != nil || len(cp.State) != 4096 || cp.DV[0] != i+1 {
						t.Fatalf("%T Load(%d) = %v, %v", st, i, cp.DV, err)
					}
					if release {
						st.Release(cp)
					}
				}
			}
		}
		dst := vclock.New(n)
		loadDV := func() {
			for i := 0; i < records; i++ {
				if dst, err = st.LoadDV(i, dst); err != nil || dst[0] != i+1 {
					t.Fatalf("%T LoadDV(%d) = %v, %v", st, i, dst, err)
				}
			}
		}
		load(true)() // the read buffer and the released memory grow once
		if allocs := testing.AllocsPerRun(100, load(true)); allocs != 0 {
			t.Errorf("%T: warm Load and Release of %d records: %v allocs, want 0", st, records, allocs)
		}
		if allocs := testing.AllocsPerRun(100, load(false)); allocs != 2*records {
			t.Errorf("%T: warm Load of %d kept records: %v allocs, want %d", st, records, allocs, 2*records)
		}
		if allocs := testing.AllocsPerRun(100, loadDV); allocs != 0 {
			t.Errorf("%T: warm LoadDV of %d records: %v allocs, want 0", st, records, allocs)
		}
	}
}
