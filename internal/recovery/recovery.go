// Package recovery implements the decentralized recovery-line calculations
// that rollback-dependency trackability enables (Wang 1997, the paper's
// reference [20] and the motivation of its Section 1): the minimum and
// maximum consistent global checkpoints containing a given set of local
// checkpoints, computed directly from dependency vectors.
//
// These are the algorithms whose feasibility the RDT property buys: because
// every checkpoint dependency is causal and captured by the stored vectors
// (Equation 2), both extrema exist and have closed forms whenever the target
// set is pairwise consistent. Software error recovery rolls back to
// MaxConsistent of the last known-good checkpoints; causal distributed
// breakpoints restart from MinConsistent of the breakpoint set.
package recovery

import (
	"fmt"

	"repro/internal/ccp"
)

// Targets maps process → checkpoint index for the set S of local
// checkpoints that must be contained in the computed line.
type Targets map[int]int

func validate(c *ccp.CCP, targets Targets) error {
	if len(targets) == 0 {
		return fmt.Errorf("recovery: empty target set")
	}
	ids := make([]ccp.CheckpointID, 0, len(targets))
	for p, idx := range targets {
		id := ccp.CheckpointID{Process: p, Index: idx}
		if p < 0 || p >= c.N() || idx < 0 || idx > c.VolatileIndex(p) {
			return fmt.Errorf("recovery: target %v out of range", id)
		}
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if !c.Consistent(ids[i], ids[j]) {
				return fmt.Errorf("recovery: targets %v and %v are causally related", ids[i], ids[j])
			}
		}
	}
	return nil
}

// MinConsistent returns the minimum consistent global checkpoint containing
// the targets: for every non-target process j the component is the largest
// dependency any target has on j,
//
//	Min[j] = max over targets t of DV(t)[j],
//
// which under RDT is always consistent (a violation would close a zigzag
// cycle through a target, contradicting the absence of useless
// checkpoints). It fails if the targets are pairwise inconsistent.
func MinConsistent(c *ccp.CCP, targets Targets) ([]int, error) {
	if err := validate(c, targets); err != nil {
		return nil, err
	}
	line := make([]int, c.N())
	for j := 0; j < c.N(); j++ {
		if idx, ok := targets[j]; ok {
			line[j] = idx
			continue
		}
		for p, idx := range targets {
			dv := c.DV(ccp.CheckpointID{Process: p, Index: idx})
			if dv[j] > line[j] {
				line[j] = dv[j]
			}
		}
	}
	if !c.IsConsistentGlobal(line) {
		return nil, fmt.Errorf("recovery: MinConsistent produced an inconsistent line %v (pattern not RDT?)", line)
	}
	return line, nil
}

// MaxConsistent returns the maximum consistent global checkpoint containing
// the targets: for every non-target process j the component is the largest
// checkpoint not causally preceded by any target,
//
//	Max[j] = max{ k : ∀ target t, DV(c_j^k)[proc(t)] ≤ idx(t) },
//
// using Equation 2 to express "t ↛ c_j^k". Under RDT the result is always
// consistent. It fails if the targets are pairwise inconsistent.
func MaxConsistent(c *ccp.CCP, targets Targets) ([]int, error) {
	if err := validate(c, targets); err != nil {
		return nil, err
	}
	line := make([]int, c.N())
	for j := 0; j < c.N(); j++ {
		if idx, ok := targets[j]; ok {
			line[j] = idx
			continue
		}
		k := c.VolatileIndex(j)
		for ; k >= 0; k-- {
			dv := c.DV(ccp.CheckpointID{Process: j, Index: k})
			ok := true
			for p, idx := range targets {
				if dv[p] > idx {
					ok = false
					break
				}
			}
			if ok {
				break
			}
		}
		if k < 0 {
			return nil, fmt.Errorf("recovery: no component for p%d (pattern not RDT?)", j)
		}
		line[j] = k
	}
	if !c.IsConsistentGlobal(line) {
		return nil, fmt.Errorf("recovery: MaxConsistent produced an inconsistent line %v (pattern not RDT?)", line)
	}
	return line, nil
}

// Extendable reports whether the target set can take part in any consistent
// global checkpoint. Under RDT this is exactly pairwise consistency
// (Netzer–Xu reduced to causality by Definition 4).
func Extendable(c *ccp.CCP, targets Targets) bool {
	return validate(c, targets) == nil
}

// MaxConsistentStored computes the maximum consistent global checkpoint
// containing the targets whose every component is still available —
// stored[p] lists process p's surviving stable checkpoints and the volatile
// state counts as available for non-target processes.
//
// This is the line software error recovery must use in a garbage-collected
// system: obsolescence (Definition 6) is relative to *failure* recovery
// lines, so a checkpoint collected by RDT-LGC can still be the component
// MaxConsistent would pick for an arbitrary rollback target. Restricted to
// survivors, the maximum is found by rollback propagation (the set of
// available consistent lines is closed under componentwise minimum, so the
// decrement-to-fixpoint ends at the unique maximum). It fails if a target
// would have to roll back, and it can legitimately fail for targets older
// than the last stable checkpoint: garbage collection retains exactly what
// failure recovery needs, so the partners a *deep* rollback would require
// may already be collected. Targeting a process's last stable checkpoint
// always succeeds — the single-fault recovery line passes through it and
// recovery-line members are never collected.
func MaxConsistentStored(c *ccp.CCP, targets Targets, stored [][]int) ([]int, error) {
	if err := validate(c, targets); err != nil {
		return nil, err
	}
	if len(stored) != c.N() {
		return nil, fmt.Errorf("recovery: stored has %d processes, want %d", len(stored), c.N())
	}
	avail := make([]map[int]bool, c.N())
	line := make([]int, c.N())
	for p := 0; p < c.N(); p++ {
		avail[p] = make(map[int]bool, len(stored[p])+1)
		for _, idx := range stored[p] {
			avail[p][idx] = true
		}
		if idx, ok := targets[p]; ok {
			if idx <= c.LastStable(p) && !avail[p][idx] {
				return nil, fmt.Errorf("recovery: target s_%d^%d is not stored", p, idx)
			}
			line[p] = idx
			continue
		}
		avail[p][c.VolatileIndex(p)] = true
		line[p] = c.VolatileIndex(p)
	}
	err := c.Propagate(line, func(i, j int) (int, error) {
		if _, isTarget := targets[j]; isTarget {
			return 0, fmt.Errorf("recovery: no stored consistent line contains the targets (p%d would force target p%d back)", i, j)
		}
		for k := line[j] - 1; k >= 0; k-- {
			if avail[j][k] {
				return k, nil
			}
		}
		return 0, fmt.Errorf("recovery: p%d has no stored checkpoint consistent with the targets", j)
	})
	if err != nil {
		return nil, err
	}
	if !c.IsConsistentGlobal(line) {
		return nil, fmt.Errorf("recovery: propagation produced an inconsistent line %v", line)
	}
	return line, nil
}
