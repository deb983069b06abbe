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
