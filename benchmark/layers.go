package main

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/node"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The isolated drives call one layer's exported functions directly, with the
// workload's own message shapes, so a layer's cost is known without the
// queueing and scheduling the live run adds around it. They run only in the
// traced run, after the episodes.

// clockNs is the cost of one time.Now(), which every wrapper-timed span
// includes once; the per-layer *_ns values taken from wrappers subtract it.
func clockNs() float64 {
	const reads = 200000
	t0 := time.Now()
	var sink time.Time
	for i := 0; i < reads; i++ {
		sink = time.Now()
	}
	_ = sink
	return float64(time.Since(t0)) / reads
}

// frame builds one wire message of the workload's shape: a full n-entry
// vector, or — compressed — the given number of changed entries.
func (w workload) frame(entries int) transport.Message {
	m := transport.Message{From: 0, To: 1, Msg: 12345, Epoch: 1, Seq: 77, Payload: make([]byte, 16)}
	if w.Compress {
		if entries < 1 {
			entries = 1
		}
		if entries > w.N {
			entries = w.N
		}
		m.Sparse = true
		m.Ord = 9
		for k := 0; k < entries; k++ {
			m.Entries = append(m.Entries, vclock.Entry{K: k, V: 100 + k})
		}
		return m
	}
	m.DV = make([]int, w.N)
	for k := range m.DV {
		m.DV[k] = 100 + k
	}
	return m
}

type transportCosts struct {
	EncodeNs, DecodeNs float64
	WireMsgsPerS       float64
}

// driveTransport times Encode and Decode on the workload's frame and, over a
// bare mesh with no kernel behind it, the rate SendBatch → StartBatched
// sustains on the workload's pairs: the ceiling the wire puts on msgs_per_s.
func driveTransport(w workload, seed int64, entries, batch int, length time.Duration) (transportCosts, error) {
	var out transportCosts
	if !w.TCP {
		return out, nil // the in-process network frames nothing
	}
	m := w.frame(entries)
	const reps = 50000
	var wire []byte
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		wire = transport.Encode(m)
	}
	out.EncodeNs = float64(time.Since(t0)) / reps
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := transport.Decode(wire); err != nil {
			return out, fmt.Errorf("decoding the workload's own frame: %w", err)
		}
	}
	out.DecodeNs = float64(time.Since(t0)) / reps

	mesh, err := transport.NewTCP(w.N)
	if err != nil {
		return out, err
	}
	var delivered atomic.Int64
	if err := mesh.StartBatched(func(ms []transport.Message) { delivered.Add(int64(len(ms))) }); err != nil {
		_ = mesh.Close()
		return out, err
	}
	if batch < 1 {
		batch = 1
	}
	var sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(length)
	for i := 0; i < w.N; i++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			dests := w.destinations(seed, -3, from)
			msgs := make([]transport.Message, batch)
			for time.Now().Before(end) {
				to := dests.next()
				for k := range msgs {
					msgs[k] = m
					msgs[k].From, msgs[k].To = from, to
				}
				n, err := mesh.SendBatch(from, to, msgs)
				sent.Add(int64(n))
				if err != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for wait := time.Now().Add(5 * time.Second); delivered.Load() < sent.Load() && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	out.WireMsgsPerS = float64(delivered.Load()) / time.Since(start).Seconds()
	if err := mesh.Close(); err != nil {
		return out, err
	}
	if delivered.Load() < sent.Load() {
		return out, fmt.Errorf("bare mesh delivered %d of %d frames", delivered.Load(), sent.Load())
	}
	return out, nil
}

type kernelCosts struct {
	SendNs, DeliverNs, BatchNsPerMsg float64
	AllocsPerDeliver                 float64
}

// driveKernels feeds standalone node.Kernels (no runtime, no locks, no
// network) the workload's destination and checkpoint sequence, one round of
// sends then one round of deliveries at a time, and times each round as a
// block. The second pass hands each receiver its round as one DeliverBatch
// call of the live run's drain size.
func driveKernels(w workload, seed int64, drain int) (kernelCosts, error) {
	var out kernelCosts
	const rounds = 400
	type queued struct {
		to int
		pb node.Piggyback
	}
	build := func() ([]*node.Kernel, []*destinations, error) {
		ks := make([]*node.Kernel, w.N)
		ds := make([]*destinations, w.N)
		for i := range ks {
			k, err := node.New(node.Config{
				ID: i, N: w.N, Store: storage.NewMemStore(), Compress: w.Compress,
				Protocol: func(int) protocol.Protocol { return protocol.NewFDAS() },
				LocalGC:  func(self, n int, st storage.Store) gc.Local { return core.New(self, n, st) },
			})
			if err != nil {
				return nil, nil, err
			}
			k.PrewarmBatch()
			ks[i], ds[i] = k, w.destinations(seed, -4, i)
		}
		return ks, ds, nil
	}
	var ms goruntime.MemStats

	// Pass 1: Send and Deliver, message by message.
	ks, ds, err := build()
	if err != nil {
		return out, err
	}
	var sendT, delivT time.Duration
	var mallocs uint64
	q := make([]queued, 0, w.N)
	for r := 1; r <= rounds; r++ {
		q = q[:0]
		t0 := time.Now()
		for i, k := range ks {
			to := ds[i].next()
			pb, err := k.Send(to)
			if err != nil {
				return out, err
			}
			q = append(q, queued{to, pb})
		}
		sendT += time.Since(t0)
		goruntime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 = time.Now()
		for _, m := range q {
			if _, err := ks[m.to].Deliver(m.pb); err != nil {
				return out, err
			}
		}
		delivT += time.Since(t0)
		goruntime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		if r%w.CkptEach == 0 {
			for _, k := range ks {
				if _, err := k.Checkpoint(true); err != nil {
					return out, err
				}
			}
		}
	}
	msgs := float64(rounds * w.N)
	out.SendNs = float64(sendT) / msgs
	out.DeliverNs = float64(delivT) / msgs
	out.AllocsPerDeliver = float64(mallocs) / msgs

	// Pass 2: the same traffic through DeliverBatch, drain messages a call.
	if ks, ds, err = build(); err != nil {
		return out, err
	}
	if drain < 1 {
		drain = 1
	}
	inbox := make([][]node.Piggyback, w.N)
	var batchT time.Duration
	delivered := 0
	flush := func(to int) error {
		t0 := time.Now()
		err := ks[to].DeliverBatch(inbox[to], nil)
		batchT += time.Since(t0)
		delivered += len(inbox[to])
		inbox[to] = inbox[to][:0]
		return err
	}
	for r := 1; r <= rounds; r++ {
		for i, k := range ks {
			to := ds[i].next()
			pb, err := k.Send(to)
			if err != nil {
				return out, err
			}
			inbox[to] = append(inbox[to], pb)
			if len(inbox[to]) >= drain {
				if err := flush(to); err != nil {
					return out, err
				}
			}
		}
		if r%w.CkptEach == 0 {
			for _, k := range ks {
				if _, err := k.Checkpoint(true); err != nil {
					return out, err
				}
			}
		}
	}
	if delivered > 0 {
		out.BatchNsPerMsg = float64(batchT) / float64(delivered)
	}
	return out, nil
}
