package sweep

import (
	"fmt"
	"math/rand"

	"repro/internal/ccp"
	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/sim"
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

// runCompressSim replays the traffic as a simulator script with immediate
// deliveries and returns (piggybacked entries, their wire bytes, sends).
func runCompressSim(st core.Stack, n int, traffic []trafficOp, compress bool) (entries, bytes, sends int, err error) {
	r, err := sim.NewRunner(sim.Config{N: n, Protocol: st.Protocol, LocalGC: st.Local, Compress: compress})
	if err != nil {
		return 0, 0, 0, err
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
		return 0, 0, 0, err
	}
	m := r.Metrics()
	return m.PiggybackEntries, m.PiggybackBytes, m.Sends, nil
}

// runCompressLive replays the traffic serialized on a live cluster (zero
// delays, network drained after every operation, so the run is
// deterministic) and returns (piggybacked entries, their wire bytes, sends).
func runCompressLive(st core.Stack, n int, traffic []trafficOp, compress bool) (entries, bytes, sends int, err error) {
	c, err := rt.NewCluster(rt.Config{N: n, Protocol: st.Protocol, LocalGC: st.Local, Compress: compress})
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	for _, op := range traffic {
		if op.ckpt {
			if err := c.Node(op.p).Checkpoint(); err != nil {
				return 0, 0, 0, err
			}
			continue
		}
		if err := c.Node(op.p).Send(op.to); err != nil {
			return 0, 0, 0, err
		}
		sends++
		c.Quiesce()
	}
	return c.PiggybackEntries(), c.PiggybackBytes(), sends, nil
}

// runCompress measures one Compression cell: Seeds independent seeded
// traffic streams through the cell's engine and mode.
func (c Cell) runCompress(st core.Stack, res *Result) error {
	v := c.CompressVariant
	if c.N < 2 {
		return fmt.Errorf("sweep: cell %d (n=%d %s): compression traffic needs at least 2 processes", c.Index, c.N, v.Name())
	}
	var entries, bytes, sends int
	for s := 0; s < c.Seeds; s++ {
		traffic := compressTraffic(c.N, c.Ops, int64(1000*s+c.N), c.PCheckpoint)
		var e, b, snd int
		var err error
		switch v.Engine {
		case "sim":
			e, b, snd, err = runCompressSim(st, c.N, traffic, v.Compress)
		case "live":
			e, b, snd, err = runCompressLive(st, c.N, traffic, v.Compress)
		default:
			err = fmt.Errorf("sweep: unknown compression engine %q", v.Engine)
		}
		if err != nil {
			return fmt.Errorf("sweep: cell %d (n=%d %s): %w", c.Index, c.N, v.Name(), err)
		}
		entries += e
		bytes += b
		sends += snd
	}
	res.Sends = sends / c.Seeds
	res.PBEntries = entries / c.Seeds
	if sends > 0 {
		// The bytes are the kernels' own count: a compressed message ships
		// the whole vector (8 bytes an entry) or its changed entries
		// (index and value, 16 bytes each), whichever is smaller.
		res.EntriesPerMsg = float64(entries) / float64(sends)
		res.PBBytesPerMsg = float64(bytes) / float64(sends)
		res.PBOfFullPct = 100 * res.PBBytesPerMsg / float64(8*c.N)
	}
	return nil
}
