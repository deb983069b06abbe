package node

import (
	"sync"

	"repro/internal/gc"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Pool is the freelist an engine serves its kernels' piggyback buffers from
// (Driver.CloneDV, Driver.EntryBuf); the engine returns a piggyback's
// buffers with Recycle once nothing reads it again, so a steady stream of
// sends allocates none. Its vectors all have the length N of the kernels it
// serves. The zero value is an empty pool. Piggybacks escape onto network
// goroutines in the live runtime, so it is mutex-guarded; the lock is a
// leaf: nothing is taken under it.
type Pool struct {
	mu   sync.Mutex
	dvs  []vclock.DV
	ents [][]Entry
}

// CloneDV returns a copy of src in a recycled vector, or a fresh clone.
func (p *Pool) CloneDV(src vclock.DV) vclock.DV {
	p.mu.Lock()
	if k := len(p.dvs); k > 0 {
		dv := p.dvs[k-1]
		p.dvs = p.dvs[:k-1]
		p.mu.Unlock()
		dv.CopyFrom(src)
		return dv
	}
	p.mu.Unlock()
	return src.Clone()
}

// EntryBuf returns a recycled, emptied entry buffer, or nil for the kernel
// to grow. Buffers keep the capacity their messages grew them to; nothing
// sizes one by n, so sparse traffic at large n stays small.
func (p *Pool) EntryBuf() []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := len(p.ents)
	if k == 0 {
		return nil
	}
	buf := p.ents[k-1]
	p.ents = p.ents[:k-1]
	return buf
}

// Recycle puts a dead piggyback's buffers on the freelist: its vector
// snapshot, compressed or not, and its entry buffer. The caller guarantees
// nothing reads the piggyback again and that its memory came from this
// pool's CloneDV or EntryBuf, or was allocated in their place — never a
// transport frame view.
func (p *Pool) Recycle(pb *Piggyback) {
	p.mu.Lock()
	if pb.DV != nil {
		p.dvs = append(p.dvs, pb.DV)
	}
	if cap(pb.Entries) > 0 {
		p.ents = append(p.ents, pb.Entries[:0])
	}
	p.mu.Unlock()
}

// Len counts the buffers on the freelist, vectors and entry buffers alike.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.dvs) + len(p.ents)
}

// View adapts kernels to gc.View, for the global collectors and the
// recovery-line computation: process i is ks[i]. CurrentDV lends the live
// vector, not a copy, so the kernels must not run while a reader holds it.
// Boxing the slice into the interface allocates, so an engine builds its
// view once.
func View(ks []*Kernel) gc.View { return kernels(ks) }

type kernels []*Kernel

func (ks kernels) N() int                    { return len(ks) }
func (ks kernels) LastStable(i int) int      { return ks[i].lastS }
func (ks kernels) CurrentDV(i int) vclock.DV { return ks[i].dv }
func (ks kernels) Store(i int) storage.Store { return ks[i].store }
