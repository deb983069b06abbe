package rdt_test

// Benchmarks regenerating the paper's figures and claims; one benchmark per
// experiment id of DESIGN.md §3. The paper is a theory paper, so alongside
// wall-clock numbers the benches report the quantities its analysis
// predicts (retained checkpoints, bounds, collection ratios) via
// b.ReportMetric; EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"fmt"
	"testing"

	rdt "repro"
	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/protocol"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/sweep"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// BenchmarkFig1Zigzag (FIG1) measures zigzag-path and C-path classification
// on the Figure 1 pattern.
func BenchmarkFig1Zigzag(b *testing.B) {
	f := ccp.NewFig1(true)
	c := f.Script.BuildCCP()
	s11 := ccp.CheckpointID{Process: 0, Index: 1}
	s23 := ccp.CheckpointID{Process: 2, Index: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.IsZigzagPath([]int{f.M5, f.M4}, s11, s23) {
			b.Fatal("zigzag classification changed")
		}
		if c.IsCausalPath([]int{f.M5, f.M4}, s11, s23) {
			b.Fatal("causal classification changed")
		}
	}
}

// BenchmarkFig2Domino (FIG2) measures useless-checkpoint detection on the
// domino pattern and reports how far a failure rolls the system back.
func BenchmarkFig2Domino(b *testing.B) {
	f := ccp.NewFig2()
	c := f.Script.BuildCCP()
	var useless int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		useless = len(c.UselessCheckpoints())
	}
	b.ReportMetric(float64(useless), "useless-ckpts")
}

// BenchmarkFig3RecoveryLine (FIG3) measures Lemma 1 recovery-line
// determination for F = {p2, p3} and reports the obsolete count (the paper
// says exactly five).
func BenchmarkFig3RecoveryLine(b *testing.B) {
	f := ccp.NewFig3()
	c := f.Script.BuildCCP()
	b.ReportAllocs()
	b.ResetTimer()
	var line []int
	for i := 0; i < b.N; i++ {
		line = c.RecoveryLine(f.Faulty)
	}
	_ = line
	b.ReportMetric(float64(len(c.ObsoleteSet())), "obsolete-ckpts")
}

// BenchmarkFig4Trace (FIG4) replays the Figure 4 execution under FDAS +
// RDT-LGC and reports the collected-checkpoint count (the paper shows 3).
func BenchmarkFig4Trace(b *testing.B) {
	script := rdt.Figure4()
	b.ReportAllocs()
	b.ResetTimer()
	var collected int
	for i := 0; i < b.N; i++ {
		sys, err := rdt.New(3)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(script); err != nil {
			b.Fatal(err)
		}
		collected = 0
		for p := 0; p < 3; p++ {
			collected += sys.StorageStats(p).Collected
		}
	}
	b.ReportMetric(float64(collected), "collected")
}

// BenchmarkFig5WorstCase (FIG5/B1) runs the generalized worst case and
// reports per-process retained checkpoints (= n, the tight bound) and the
// global peak during a simultaneous checkpoint wave (= n(n+1)).
func BenchmarkFig5WorstCase(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			script := rdt.WorstCase(n)
			var wave rdt.Script
			wave.N = n
			for q := 0; q < n; q++ {
				wave.Checkpoint(q)
			}
			var perProc, peakGlobal int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := rdt.New(n)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Run(script); err != nil {
					b.Fatal(err)
				}
				if err := sys.Run(wave); err != nil {
					b.Fatal(err)
				}
				perProc = sys.RetainedCounts()[0]
				peakGlobal = 0
				for p := 0; p < n; p++ {
					peakGlobal += sys.StorageStats(p).Peak
				}
			}
			b.ReportMetric(float64(perProc), "retained/proc")
			b.ReportMetric(float64(peakGlobal), "peak-global")
		})
	}
}

// BenchmarkEventCost (C1) measures RDT-LGC's per-event overhead as n grows:
// the paper claims O(n) per event, dominated by the vector merge the
// checkpointing protocol performs anyway.
func BenchmarkEventCost(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st := storage.NewMemStore()
			if err := st.Save(storage.Checkpoint{Index: 0, DV: vclock.New(n)}); err != nil {
				b.Fatal(err)
			}
			lgc := core.New(0, n, st)
			idx := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx++
				if err := st.Save(storage.Checkpoint{Index: idx, DV: vclock.New(n)}); err != nil {
					b.Fatal(err)
				}
				if err := lgc.OnCheckpoint(idx, vclock.New(n)); err != nil {
					b.Fatal(err)
				}
				if err := lgc.OnNewInfo([]int{1 + i%(n-1)}, vclock.New(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRollback (C1) measures Algorithm 3: the paper claims O(n log n)
// with binary search over O(n) stored checkpoints.
func BenchmarkRollback(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Prepare a store with n checkpoints and rising vectors.
			mk := func() (*core.LGC, storage.Store) {
				st := storage.NewMemStore()
				for k := 0; k < n; k++ {
					dv := vclock.New(n)
					for j := range dv {
						dv[j] = k
					}
					dv[0] = k
					if err := st.Save(storage.Checkpoint{Index: k, DV: dv}); err != nil {
						b.Fatal(err)
					}
				}
				return core.New(0, n, st), st
			}
			li := make([]int, n)
			for j := range li {
				li[j] = n - 1
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				lgc, _ := mk()
				b.StartTimer()
				if _, err := lgc.Rollback(n-1, li); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFDASMerged vs BenchmarkFDASPlain (E2): the merged FDAS + RDT-LGC
// middleware should cost asymptotically the same as FDAS alone — the
// paper's Algorithm 4 claim.
func BenchmarkFDASPlain(b *testing.B)  { benchFDAS(b, false) }
func BenchmarkFDASMerged(b *testing.B) { benchFDAS(b, true) }

func benchFDAS(b *testing.B, withLGC bool) {
	const n = 8
	script := workload.Generate(workload.Uniform, workload.Options{N: n, Ops: 2000, Seed: 7})
	cfg := sim.Config{N: n, Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() }}
	if withLGC {
		cfg.LocalGC = func(self, nn int, st storage.Store) gc.Local { return core.New(self, nn, st) }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCollectors (E1) is the practical-environment evaluation the
// paper defers to future work: one collectors-table cell per collector, on
// a uniform workload at n = 8, reporting steady-state retention as metrics.
func BenchmarkSweepCollectors(b *testing.B) {
	for _, cell := range uniformCells(8, 3000, nil) {
		b.Run(cell.Collector, func(b *testing.B) {
			res := benchCell(b, cell)
			b.ReportMetric(res.RetainedMean, "retained-mean")
			b.ReportMetric(float64(res.RetainedMax), "retained-max")
			b.ReportMetric(res.CollectRatio, "collect-ratio")
		})
	}
}

// BenchmarkSweepN (E1) scales the process count under RDT-LGC, reporting
// mean retained checkpoints per process against the n bound.
func BenchmarkSweepN(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		cell := uniformCells(n, 500*n, []string{core.RDTLGC})[0]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			res := benchCell(b, cell)
			b.ReportMetric(res.RetainedMean, "retained-mean")
			b.ReportMetric(float64(res.RetainedMax), "retained-max")
		})
	}
}

// uniformCells is one seed of the collectors table on the uniform workload
// at size n, over the given collectors (nil: all of them).
func uniformCells(n, ops int, collectors []string) []sweep.Cell {
	g := sweep.Default(sweep.Collectors)
	g.Workloads, g.Sizes, g.Seeds, g.Ops = []workload.Kind{workload.Uniform}, []int{n}, 1, ops
	if collectors != nil {
		g.Collectors = collectors
	}
	return g.Cells()
}

func benchCell(b *testing.B, cell sweep.Cell) sweep.Result {
	var res sweep.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = cell.Run(); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkAblationRefcount vs BenchmarkAblationNaive: what Algorithm 1's
// reference-counted CCB/UC structure buys over a semantically identical
// scan-based collector (gc.Naive) that recomputes the retained set from the
// stored vectors on every event. Both collect the same checkpoints (see
// TestNaiveEquivalentToRDTLGC); only the bookkeeping cost differs.
func BenchmarkAblationRefcount(b *testing.B) { benchAblation(b, lgcLocal) }
func BenchmarkAblationNaive(b *testing.B)    { benchAblation(b, naiveLocal) }

func lgcLocal(self, n int, st storage.Store) gc.Local   { return core.New(self, n, st) }
func naiveLocal(self, n int, st storage.Store) gc.Local { return gc.NewNaive(self, n, st) }

func benchAblation(b *testing.B, local func(int, int, storage.Store) gc.Local) {
	const n = 16
	script := workload.Generate(workload.Uniform, workload.Options{N: n, Ops: 3000, Seed: 23})
	cfg := sim.Config{
		N:        n,
		Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
		LocalGC:  local,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergedAlgorithm4 measures the single-pass merged FDAS + RDT-LGC
// middleware of Algorithm 4 on the same workload as BenchmarkFDASMerged's
// composed stack.
func BenchmarkMergedAlgorithm4(b *testing.B) {
	const n = 8
	script := workload.Generate(workload.Uniform, workload.Options{N: n, Ops: 2000, Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := make([]*core.Merged, n)
		for p := 0; p < n; p++ {
			m, err := core.NewMerged(p, n, storage.NewMemStore())
			if err != nil {
				b.Fatal(err)
			}
			nodes[p] = m
		}
		pb := make(map[int]vclock.DV, 1024)
		for _, op := range script.Ops {
			switch op.Kind {
			case ccp.OpCheckpoint:
				if err := nodes[op.P].Checkpoint(); err != nil {
					b.Fatal(err)
				}
			case ccp.OpSend:
				pb[op.Msg] = nodes[op.P].Send()
			case ccp.OpRecv:
				if err := nodes[op.P].Deliver(pb[op.Msg]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkPiggybackCompression compares full-vector piggybacking against
// the Singhal–Kshemkalyani incremental technique on a client-server
// workload, reporting the vector entries that crossed the network.
func BenchmarkPiggybackCompression(b *testing.B) {
	const n = 16
	script := workload.Generate(workload.ClientServer, workload.Options{N: n, Ops: 2000, Seed: 7})
	for _, compress := range []bool{false, true} {
		name := "full"
		if compress {
			name = "incremental"
		}
		b.Run(name, func(b *testing.B) {
			var entries int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := []rdt.Option{}
				if compress {
					opts = append(opts, rdt.WithCompression())
				}
				sys, err := rdt.New(n, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Run(script); err != nil {
					b.Fatal(err)
				}
				entries = sys.Stats().PiggybackEntries
			}
			b.ReportMetric(float64(entries), "pb-entries")
		})
	}
}

// BenchmarkRecoveryExtrema measures Wang's min/max consistent global
// checkpoint calculations that RDT enables (Section 1's motivation).
func BenchmarkRecoveryExtrema(b *testing.B) {
	script := workload.Generate(workload.Uniform, workload.Options{N: 8, Ops: 800, Seed: 17})
	script = ccp.ForceRDT(script)
	c := script.BuildCCP()
	targets := recovery.Targets{0: c.LastStable(0), 3: c.LastStable(3) / 2}
	if !recovery.Extendable(c, targets) {
		targets = recovery.Targets{0: c.LastStable(0)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recovery.MinConsistent(c, targets); err != nil {
			b.Fatal(err)
		}
		if _, err := recovery.MaxConsistent(c, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveCluster measures live-cluster event throughput for the two
// transports: direct in-process delivery and the TCP loopback mesh (the
// piggybacked vectors cross real sockets in the latter).
func BenchmarkLiveCluster(b *testing.B) {
	for _, tcp := range []bool{false, true} {
		name := "direct"
		if tcp {
			name = "tcp"
		}
		b.Run(name, func(b *testing.B) {
			const n = 4
			c, err := rdt.NewCluster(n, rdt.Network{TCP: tcp, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node := c.Node(i % n)
				if i%5 == 0 {
					if err := node.Checkpoint(); err != nil {
						b.Fatal(err)
					}
					continue
				}
				if err := node.Send((i + 1) % n); err != nil {
					b.Fatal(err)
				}
			}
			c.Quiesce()
		})
	}
}

// BenchmarkRollbackVariants (E3) compares Algorithm 3's LI and DV variants.
func BenchmarkRollbackVariants(b *testing.B) {
	const n = 6
	script := workload.Generate(workload.Uniform, workload.Options{N: n, Ops: 1200, Seed: 19})
	for _, globalLI := range []bool{true, false} {
		name := "DV"
		if globalLI {
			name = "LI"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var retained int
			for i := 0; i < b.N; i++ {
				sys, err := rdt.New(n)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Run(script); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Recover([]int{1, 3}, globalLI); err != nil {
					b.Fatal(err)
				}
				retained = 0
				for p := 0; p < n; p++ {
					retained += len(sys.Retained(p))
				}
			}
			b.ReportMetric(float64(retained), "retained-after")
		})
	}
}
