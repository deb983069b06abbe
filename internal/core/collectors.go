package core

import (
	"fmt"

	"repro/internal/gc"
	"repro/internal/storage"
)

// The collectors the paper compares, by the names every facade, CLI and
// experiment table prints. This file is the one place a collector is named
// and wired into an engine.
const (
	NoGC           = "no-gc"    // keeps everything
	RDTLGC         = "RDT-LGC"  // the paper's asynchronous collector
	SyncOpt        = "sync-opt" // the Theorem 1 optimum, with global knowledge
	RecoveryLineGC = "rl-gc"    // the all-faulty recovery line of [5, 8]
)

// Collector is one collector's wiring: a per-process Local constructor, a
// Global collector run with global knowledge, or neither (no-gc).
type Collector struct {
	Name   string
	Local  func(self, n int, st storage.Store) gc.Local
	Global gc.Global
}

// collectors lists every collector in the collectors table's row order.
func collectors() []Collector {
	return []Collector{
		{Name: NoGC},
		{Name: RDTLGC, Local: func(self, n int, st storage.Store) gc.Local { return New(self, n, st) }},
		{Name: SyncOpt, Global: gc.NewSynchronous()},
		{Name: RecoveryLineGC, Global: gc.NewRecoveryLine()},
	}
}

// CollectorNames returns every collector's name in table order: no-gc,
// RDT-LGC, sync-opt, rl-gc.
func CollectorNames() []string {
	var names []string
	for _, c := range collectors() {
		names = append(names, c.Name)
	}
	return names
}

// LookupCollector returns the collector called name. With live set it also
// refuses a global collector: the live runtime and the chaos engine run
// only local ones, because their processes share no global view.
func LookupCollector(name string, live bool) (Collector, error) {
	for _, c := range collectors() {
		if c.Name != name {
			continue
		}
		if live && c.Global != nil {
			return Collector{}, fmt.Errorf("core: live engines run only local collectors (%s, %s), not %s", RDTLGC, NoGC, name)
		}
		return c, nil
	}
	return Collector{}, fmt.Errorf("core: unknown collector %q", name)
}
