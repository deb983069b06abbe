package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a fixed-size log-linear histogram of nanosecond durations: 64
// sub-buckets per power of two (≤ 0.8 % bucket width), values up to 2^40 ns
// (18 minutes). It is allocated once per (node, window) before an episode
// starts; recording a sample is one increment and never appends, so the
// measured process's heap does not grow with the sample count. (obs.Histogram
// has one bucket per power of two: right for live telemetry, too coarse to
// tell a 10 % regression in a percentile.)
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// bucketOf maps a value to its bucket: values below histSub are exact, above
// that the top histSubBits bits after the leading one select the sub-bucket.
func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // ≥ histSubBits
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// bucketBounds is the half-open value range [lo, hi) of a bucket.
func bucketBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	exp := b/histSub + histSubBits - 1
	sub := b % histSub
	width := math.Ldexp(1, exp-histSubBits)
	lo = math.Ldexp(1, exp) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q ≤ 1), interpolated linearly inside
// the bucket that holds it, so the value keeps its digits instead of snapping
// to a bucket edge. An empty histogram returns 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// windows spreads samples over fixed-length measurement windows, one
// histogram per (node, window). Each node's row is written only by the
// goroutine that holds that node's lock (or owns that node's sender), so
// recording takes no lock of its own; rows are merged after the episode.
type windows struct {
	start time.Time
	len   time.Duration
	rows  [][]hist // [node][window]
}

func newWindows(nodes, count int, length time.Duration) *windows {
	w := &windows{len: length, rows: make([][]hist, nodes)}
	for i := range w.rows {
		w.rows[i] = make([]hist, count)
	}
	return w
}

// index is the window that holds instant t, or -1 outside the measured span:
// before the windows have been opened (start unset), during ramp-up, and
// after the last window.
func (w *windows) index(t time.Time) int {
	d := t.Sub(w.start)
	if w.start.IsZero() || d < 0 {
		return -1
	}
	k := int(d / w.len)
	if k >= len(w.rows[0]) {
		return -1
	}
	return k
}

func (w *windows) record(node int, t time.Time, v time.Duration) {
	if k := w.index(t); k >= 0 {
		w.rows[node][k].add(int64(v))
	}
}

// merged folds the nodes' rows into one histogram per window.
func (w *windows) merged() []hist {
	out := make([]hist, len(w.rows[0]))
	for _, row := range w.rows {
		for k := range row {
			out[k].merge(&row[k])
		}
	}
	return out
}

// median of a sample; the mean of the two middle values for an even count,
// 0 for an empty one. The input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile of raw samples by nearest rank (p in (0,100]); for the small
// per-episode sets (recoveries) where a histogram would be mostly empty.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}
