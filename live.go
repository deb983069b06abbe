package rdt

import (
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
)

// Network shapes the asynchronous network of a live cluster.
type Network struct {
	// MinDelay and MaxDelay bound the uniformly random delivery delay.
	MinDelay, MaxDelay time.Duration
	// Loss is the probability a message is dropped in transit.
	Loss float64
	// Seed makes the loss/delay draws reproducible.
	Seed int64
	// TCP puts a loopback TCP mesh under the cluster's link layer instead of
	// the in-process hand-off; cuts, heals, retransmit and backpressure are
	// the same on both.
	TCP bool
}

// Cluster is a live deployment: one goroutine-safe middleware node per
// process connected by an asynchronous network. Unlike System it is driven
// by concurrent application goroutines rather than scripts.
type Cluster struct {
	c *runtime.Cluster
}

// LiveNode is one process's middleware endpoint in a live cluster.
type LiveNode = runtime.Node

// LiveReport describes a live recovery session.
type LiveReport = runtime.Report

// NewCluster assembles a live cluster of n processes.
func NewCluster(n int, net Network, opt ...Option) (*Cluster, error) {
	o := defaults()
	for _, f := range opt {
		f(&o)
	}
	pf, err := o.protocol.factory()
	if err != nil {
		return nil, err
	}
	col, err := core.LookupCollector(o.collector.String(), true)
	if err != nil {
		return nil, err
	}
	cfg := runtime.Config{
		N:        n,
		Protocol: pf,
		LocalGC:  col.Local,
		TCP:      net.TCP,
		Compress: o.compress,
		Obs:      o.obs,
		// History and Oracle are part of this API, so the cluster records.
		Record: true,
		Net: runtime.NetworkOptions{
			MinDelay: net.MinDelay,
			MaxDelay: net.MaxDelay,
			Loss:     net.Loss,
			Seed:     net.Seed,
		},
	}
	if cfg.NewStore, err = o.stores(); err != nil {
		return nil, err
	}
	c, err := runtime.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.c.N() }

// Node returns process i's middleware endpoint.
func (c *Cluster) Node(i int) *LiveNode { return c.c.Node(i) }

// Quiesce blocks until every in-transit message is delivered or dropped.
// Stop sending before calling it.
func (c *Cluster) Quiesce() { c.c.Quiesce() }

// Recover crashes the faulty set and runs a centralized recovery session on
// the live cluster; in-transit messages are lost, exactly as a real failure
// would lose them. The faulty processes fail and rejoin within the session;
// for processes crashed earlier via Crash use Restart instead.
func (c *Cluster) Recover(faulty []int, globalLI bool) (LiveReport, error) {
	return c.c.Recover(faulty, globalLI)
}

// Crash fails process i in place: its volatile state is discarded, its
// stable store survives, and until Restart its methods refuse with
// runtime.ErrCrashed while messages addressed to it are lost. Survivors
// keep running against the hole in the mesh.
func (c *Cluster) Crash(i int) error { return c.c.Crash(i) }

// Down returns the currently crashed processes, in ascending order.
func (c *Cluster) Down() []int { return c.c.Down() }

// Restart rehydrates every crashed process from stable storage and runs a
// recovery session with exactly those processes as the faulty set,
// rejoining them to the mesh on a consistent recovery line.
func (c *Cluster) Restart(globalLI bool) (LiveReport, error) {
	return c.c.Restart(globalLI)
}

// Oracle rebuilds the ground-truth pattern from the linearized history of
// the concurrent execution. A live cluster records that history for its
// whole life (runtime.Config.Record): its flight recorder keeps every event,
// 56 bytes each, about two per message.
func (c *Cluster) Oracle() *CCP { return c.c.Oracle() }

// BreakLink cuts the directed pair from "from" to "to" until HealLink or
// HealAll: once it returns nothing more crosses. Frames in the cut park for
// retransmit and are replayed after the heal. The same on every cluster, TCP
// or not. Reports whether the pair was open (one that cannot exist is not).
func (c *Cluster) BreakLink(from, to int) bool { return c.c.BreakLink(from, to) }

// HealLink lifts one directed break and synchronously flushes the pair's
// parked frames back onto the wire. Reports whether the pair was cut.
func (c *Cluster) HealLink(from, to int) bool { return c.c.HealLink(from, to) }

// Partition cuts every directed pair crossing the given groups
// atomically; processes in no group form one implicit extra side, so
// Partition([][]int{{3}}) isolates process 3. Works on any cluster.
func (c *Cluster) Partition(groups [][]int) error { return c.c.Partition(groups) }

// HealAll lifts every break and partition and flushes every pair's parked
// backlog; HealAll followed by Quiesce observes the stranded traffic
// delivered. Returns how many directed pairs healed.
func (c *Cluster) HealAll() int { return c.c.HealAll() }

// PartitionedPairs reports how many directed pairs are currently cut.
func (c *Cluster) PartitionedPairs() int { return c.c.PartitionedPairs() }

// Close releases the cluster's wire (the TCP mesh, when enabled) and closes
// the stable stores the cluster opened. The cluster is unusable afterwards.
func (c *Cluster) Close() error { return c.c.Close() }

// History returns the linearized executed history.
func (c *Cluster) History() Script { return c.c.History() }
