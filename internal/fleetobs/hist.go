package fleetobs

import (
	"math"
	"sort"
	"time"
)

// LogHistogram is a fixed-bucket log-scale latency histogram in
// milliseconds. The buckets are compile-time constants and the counts are
// integers, so merging per-tenant histograms is commutative and associative
// — bucket counts add — which is what keeps merged tail percentiles
// byte-identical whatever the merge order: a floating-point sample sum
// would depend on merge order, bucket counts cannot.
//
// The zero value is an empty, ready-to-use histogram; Observe never
// allocates.
type LogHistogram struct {
	counts [histBuckets]uint64
	total  uint64
}

const (
	// histBuckets buckets span histMinMS..~120 s: bucket 0 catches
	// everything at or below 1 µs, the last bucket is open-ended overflow,
	// and each boundary grows by histGrowth.
	histBuckets = 64
	histMinMS   = 1e-3
	histGrowth  = 1.35
)

// histBounds[i] is bucket i's inclusive upper bound in milliseconds; the
// final bucket has no upper bound. Computed once, in index order, from
// constants — identical on every run.
var histBounds = func() [histBuckets - 1]float64 {
	var b [histBuckets - 1]float64
	v := histMinMS
	for i := range b {
		b[i] = v
		v *= histGrowth
	}
	return b
}()

// bucketOf returns the bucket index holding value v (in milliseconds).
func bucketOf(v float64) int {
	if math.IsNaN(v) || v <= histBounds[0] {
		return 0
	}
	return sort.SearchFloat64s(histBounds[:], v)
}

// representative returns the deterministic value reported for bucket i:
// its lower bound for the edge buckets, the geometric midpoint otherwise.
func representative(i int) float64 {
	switch {
	case i == 0:
		return histBounds[0]
	case i >= histBuckets-1:
		return histBounds[histBuckets-2]
	default:
		return math.Sqrt(histBounds[i-1] * histBounds[i])
	}
}

// Observe records one sample, in milliseconds.
func (h *LogHistogram) Observe(ms float64) {
	h.counts[bucketOf(ms)]++
	h.total++
}

// ObserveDuration records one sample given as a duration.
func (h *LogHistogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / 1e6)
}

// Count returns the number of recorded samples.
func (h *LogHistogram) Count() uint64 { return h.total }

// Merge adds o's buckets into h. Because only integer counts move, any
// merge order yields the same histogram.
func (h *LogHistogram) Merge(o *LogHistogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// Percentile returns the q'th percentile (0..100) in milliseconds as the
// containing bucket's representative value: with a single sample every
// percentile reports that sample's bucket, and an empty histogram reports
// 0. Resolution is one bucket (~±16%), which is the price of
// order-independent merging.
func (h *LogHistogram) Percentile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 100 {
		q = 100
	}
	rank := uint64(math.Ceil(q / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return representative(i)
		}
	}
	return representative(histBuckets - 1)
}

// Mean returns the bucket-representative mean in milliseconds (0 when
// empty). Computed in fixed bucket order from integer counts, so it is
// merge-order independent too.
func (h *LogHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.counts {
		if c > 0 {
			sum += float64(c) * representative(i)
		}
	}
	return sum / float64(h.total)
}
