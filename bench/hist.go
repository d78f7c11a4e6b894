package main

import "math/bits"

// subBits sets the histogram resolution: every power-of-two octave is
// split into 1<<subBits equal buckets, so no bucket is wider than 1/128
// of its lower bound. harness.Histogram's 12.5% buckets let p99 jump a
// whole bucket between identical runs; at under 1% a percentile moves
// with the run, not with the bucketing.
const (
	subBits    = 7
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets
)

// hist is a log-linear histogram of non-negative durations or virtual
// times in nanoseconds. Values below 2*subBuckets get a bucket each.
// The zero value is empty and ready; it is not safe for concurrent use,
// so each worker records into its own and the owner merges them.
type hist struct {
	counts [numBuckets]uint64
	n      uint64
	sum    float64
}

func bucketOf(v uint64) int {
	if v < 2*subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return e*subBuckets + int(v>>e)
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 2*subBuckets {
		return float64(i), 1
	}
	e := i/subBuckets - 1
	m := uint64(i - e*subBuckets)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 < q < 1), interpolating linearly by
// rank inside the bucket that holds it, so the result is not snapped to
// a bucket edge. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, width := bucketRange(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketRange(numBuckets - 1)
	return lo + width
}
