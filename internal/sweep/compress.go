package sweep

import (
	"fmt"
	"math/rand"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/protocol"
	rt "repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/storage"
)

// This file implements the Compression table (E6): the control-information
// cost of full-vector versus incremental (Singhal–Kshemkalyani) dependency
//-vector piggybacking, measured through BOTH engines of the shared
// middleware kernel — the deterministic simulator and a serialized live
// cluster — over the same seeded traffic. Because the engines drive the
// same kernel, the entry counts must agree pairwise; the table doubles as a
// standing cross-engine consistency record.

// CompressVariant is one row variant of the Compression table: which
// engine drives the kernel, and whether incremental piggybacking is on.
type CompressVariant struct {
	Engine   string // "sim" or "live"
	Compress bool
}

// Name returns the variant name, the third key column of the table.
func (v CompressVariant) Name() string {
	mode := "full"
	if v.Compress {
		mode = "incremental"
	}
	return v.Engine + "/" + mode
}

// CompressVariants is the default variant axis: both engines, both modes.
func CompressVariants() []CompressVariant {
	return []CompressVariant{
		{"sim", false},
		{"sim", true},
		{"live", false},
		{"live", true},
	}
}

// trafficOp is one operation of the shared seeded traffic: a basic
// checkpoint of p, or a send p→to delivered immediately (FIFO per pair, as
// compression requires).
type trafficOp struct {
	p, to int
	ckpt  bool
}

// compressTraffic generates the deterministic operation stream a
// Compression cell replays through either engine: client-server traffic
// (every exchange involves the hub p0), the repeat-pair shape the
// Singhal–Kshemkalyani technique targets — between two messages of the
// same pair only the recently active entries change, so the incremental
// piggyback stays small while the full vector grows with n.
func compressTraffic(n, ops int, seed int64, pCheckpoint float64) []trafficOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trafficOp, 0, ops)
	for i := 0; i < ops; i++ {
		p := rng.Intn(n)
		if rng.Float64() < pCheckpoint {
			out = append(out, trafficOp{p: p, ckpt: true})
			continue
		}
		to := 0
		if p == 0 {
			to = 1 + rng.Intn(n-1) // the hub replies to a random client
		}
		out = append(out, trafficOp{p: p, to: to})
	}
	return out
}

func compressStack() (func(int) protocol.Protocol, func(int, int, storage.Store) gc.Local) {
	return protocol.Factory("FDAS"),
		func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) }
}

// runCompressSim replays the traffic as a simulator script with immediate
// deliveries and returns (piggybacked entries, sends).
func runCompressSim(n int, traffic []trafficOp, compress bool) (entries, sends int, err error) {
	pf, lgc := compressStack()
	r, err := sim.NewRunner(sim.Config{N: n, Protocol: pf, LocalGC: lgc, Compress: compress})
	if err != nil {
		return 0, 0, err
	}
	s := ccp.Script{N: n}
	for _, op := range traffic {
		if op.ckpt {
			s.Checkpoint(op.p)
		} else {
			s.Message(op.p, op.to)
		}
	}
	if err := r.Run(s); err != nil {
		return 0, 0, err
	}
	m := r.Metrics()
	return m.PiggybackEntries, m.Sends, nil
}

// runCompressLive replays the traffic serialized on a live cluster (zero
// delays, network drained after every operation, so the run is
// deterministic) and returns (piggybacked entries, sends).
func runCompressLive(n int, traffic []trafficOp, compress bool) (entries, sends int, err error) {
	pf, lgc := compressStack()
	c, err := rt.NewCluster(rt.Config{N: n, Protocol: pf, LocalGC: lgc, Compress: compress})
	if err != nil {
		return 0, 0, err
	}
	for _, op := range traffic {
		if op.ckpt {
			if err := c.Node(op.p).Checkpoint(); err != nil {
				return 0, 0, err
			}
			continue
		}
		if err := c.Node(op.p).Send(op.to); err != nil {
			return 0, 0, err
		}
		sends++
		c.Quiesce()
	}
	return c.PiggybackEntries(), sends, nil
}

// runCompress measures one Compression cell: Seeds independent seeded
// traffic streams through the cell's engine and mode.
func (c Cell) runCompress(res *Result) error {
	v := c.CompressVariant
	if c.N < 2 {
		return fmt.Errorf("sweep: cell %d (n=%d %s): compression traffic needs at least 2 processes", c.Index, c.N, v.Name())
	}
	var entries, sends int
	for s := 0; s < c.Seeds; s++ {
		traffic := compressTraffic(c.N, c.Ops, int64(1000*s+c.N), c.PCheckpoint)
		var e, snd int
		var err error
		switch v.Engine {
		case "sim":
			e, snd, err = runCompressSim(c.N, traffic, v.Compress)
		case "live":
			e, snd, err = runCompressLive(c.N, traffic, v.Compress)
		default:
			err = fmt.Errorf("sweep: unknown compression engine %q", v.Engine)
		}
		if err != nil {
			return fmt.Errorf("sweep: cell %d (n=%d %s): %w", c.Index, c.N, v.Name(), err)
		}
		entries += e
		sends += snd
	}
	res.Sends = sends / c.Seeds
	res.PBEntries = entries / c.Seeds
	if sends > 0 {
		res.EntriesPerMsg = float64(entries) / float64(sends)
		// A full-vector entry costs 8 bytes on the wire; an incremental
		// entry carries (index, value), 16 bytes.
		entryBytes := 8.0
		if v.Compress {
			entryBytes = 16.0
		}
		res.PBBytesPerMsg = res.EntriesPerMsg * entryBytes
		res.PBOfFullPct = 100 * res.PBBytesPerMsg / float64(8*c.N)
	}
	return nil
}
