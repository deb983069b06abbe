package core

import (
	"fmt"

	"repro/internal/gc"
	"repro/internal/protocol"
	"repro/internal/storage"
)

// The collectors the paper compares, by the names every facade, CLI and
// experiment table prints. This file is the one place a collector is named
// and a protocol+collector pair is wired into an engine.
const (
	NoGC           = "no-gc"    // keeps everything
	RDTLGC         = "RDT-LGC"  // the paper's asynchronous collector
	SyncOpt        = "sync-opt" // the Theorem 1 optimum, with global knowledge
	RecoveryLineGC = "rl-gc"    // the all-faulty recovery line of [5, 8]
)

// Stack is one protocol+collector pair and what the pair promises. Every
// engine a facade, CLI or experiment table builds takes its protocol and
// collector from a Stack that NewStack returned.
type Stack struct {
	Protocol  func(self int) protocol.Protocol
	Collector string // the collector's name
	// Local is the per-process collector and Global the one run with global
	// knowledge; no-gc sets neither.
	Local  func(self, n int, st storage.Store) gc.Local
	Global gc.Global
	// RDT: the protocol guarantees rollback-dependency trackability, which
	// RDT-LGC's safety (Theorem 4) needs. NBound: no process retains more
	// than n stable checkpoints (Section 4.5), as RDT-LGC under one does.
	RDT, NBound bool
}

// collectors lists every collector in the collectors table's row order,
// each as a Stack with no protocol yet.
func collectors() []Stack {
	return []Stack{
		{Collector: NoGC},
		{Collector: RDTLGC, Local: func(self, n int, st storage.Store) gc.Local { return New(self, n, st) }},
		{Collector: SyncOpt, Global: gc.NewSynchronous()},
		{Collector: RecoveryLineGC, Global: gc.NewRecoveryLine()},
	}
}

// CollectorNames returns every collector's name in table order: no-gc,
// RDT-LGC, sync-opt, rl-gc.
func CollectorNames() []string {
	var names []string
	for _, s := range collectors() {
		names = append(names, s.Collector)
	}
	return names
}

// NewStack resolves a protocol name from internal/protocol's table and a
// collector name from this file's table into a Stack.
func NewStack(protocolName, collectorName string) (Stack, error) {
	pf := protocol.Factory(protocolName)
	if pf == nil {
		return Stack{}, fmt.Errorf("core: unknown protocol %q", protocolName)
	}
	for _, s := range collectors() {
		if s.Collector == collectorName {
			s.Protocol, s.RDT = pf, protocol.RDT(pf(0))
			s.NBound = s.RDT && s.Collector == RDTLGC
			return s, nil
		}
	}
	return Stack{}, fmt.Errorf("core: unknown collector %q", collectorName)
}

// Live refuses a global collector: the live runtime and the chaos engine
// run only local ones, because their processes share no global view.
func (s Stack) Live() error {
	if s.Global != nil {
		return fmt.Errorf("core: live engines run only local collectors (%s, %s), not %s", RDTLGC, NoGC, s.Collector)
	}
	return nil
}
