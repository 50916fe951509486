// Package metrics provides the measurement primitives used across the
// repository: sample distributions with percentiles/CDFs, frame-rate
// counters, and rolling time series. These back every table and figure the
// benchmark harness regenerates.
//
// The primitives serve the §2.3 measurement study and the §5 evaluation
// alike. Aggregation is order-deterministic: equal sample streams yield
// identical statistics, so equal-seed simulations format byte-identical
// tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Distribution accumulates float64 samples and answers summary-statistics
// and percentile queries. All samples are retained, so it suits the
// simulation-scale populations used here (up to a few million samples).
type Distribution struct {
	samples []float64
	sorted  bool
	sum     float64
	sumSq   float64
	max     float64
}

// Add records one sample.
func (d *Distribution) Add(v float64) {
	if len(d.samples) == 0 || v > d.max {
		d.max = v
	}
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
	d.sumSq += v * v
}

// AddDuration records a duration sample in milliseconds.
func (d *Distribution) AddDuration(v time.Duration) {
	d.Add(float64(v) / float64(time.Millisecond))
}

// Count returns the number of samples.
func (d *Distribution) Count() int { return len(d.samples) }

// Mean returns the sample mean, or 0 when empty.
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / float64(len(d.samples))
}

// Max returns the largest sample, or 0 when empty.
func (d *Distribution) Max() float64 { return d.max }

// Sum returns the total of all samples.
func (d *Distribution) Sum() float64 { return d.sum }

// Stddev returns the population standard deviation, or 0 when empty.
func (d *Distribution) Stddev() float64 {
	n := float64(len(d.samples))
	if n == 0 {
		return 0
	}
	mean := d.sum / n
	v := d.sumSq/n - mean*mean
	if v < 0 {
		v = 0 // guard against rounding
	}
	return math.Sqrt(v)
}

// StdErr returns the standard error of the mean, or 0 when empty.
func (d *Distribution) StdErr() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.Stddev() / math.Sqrt(float64(len(d.samples)))
}

func (d *Distribution) sort() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Percentile returns the q-th percentile (0 <= q <= 100) by linear
// interpolation between closest ranks, or 0 when empty.
func (d *Distribution) Percentile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	if q <= 0 {
		return d.samples[0]
	}
	if q >= 100 {
		return d.samples[len(d.samples)-1]
	}
	rank := q / 100 * float64(len(d.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.samples[lo]
	}
	frac := rank - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// CDFPoint is one point of an empirical CDF: fraction F of samples <= Value.
type CDFPoint struct {
	Value float64
	F     float64
}

// CDF returns the empirical CDF downsampled to at most n evenly spaced
// points (by cumulative fraction), always including the extremes.
func (d *Distribution) CDF(n int) []CDFPoint {
	if len(d.samples) == 0 || n <= 0 {
		return nil
	}
	d.sort()
	if n > len(d.samples) {
		n = len(d.samples)
	}
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(d.samples) - 1) / max(n-1, 1)
		pts = append(pts, CDFPoint{
			Value: d.samples[idx],
			F:     float64(idx+1) / float64(len(d.samples)),
		})
	}
	pts[len(pts)-1].F = 1
	return pts
}

// FractionBelow returns the fraction of samples <= v.
func (d *Distribution) FractionBelow(v float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	i := sort.SearchFloat64s(d.samples, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(d.samples))
}

// FractionAbove returns the fraction of samples > v.
func (d *Distribution) FractionAbove(v float64) float64 { return 1 - d.FractionBelow(v) }

// Merge folds other's samples into d, exactly as if each had been passed to
// Add in insertion order. The result — including the floating-point
// accumulation order of Sum and Stddev — depends only on the sequence of
// merged sources, never on when they were computed, which is what lets the
// parallel experiment runners reproduce the serial path byte for byte.
func (d *Distribution) Merge(other *Distribution) {
	if len(other.samples) == 0 {
		return
	}
	if len(d.samples) == 0 || other.max > d.max {
		d.max = other.max
	}
	// Accumulate per sample (not d.sum += other.sum) so the FP rounding
	// matches element-wise Add exactly.
	for _, v := range other.samples {
		d.sum += v
		d.sumSq += v * v
	}
	d.samples = append(d.samples, other.samples...)
	d.sorted = false
}

// Samples returns a copy of the raw samples (unsorted order not preserved).
func (d *Distribution) Samples() []float64 {
	out := make([]float64, len(d.samples))
	copy(out, d.samples)
	return out
}

func (d *Distribution) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f",
		d.Count(), d.Mean(), d.Percentile(50), d.Percentile(99), d.Max())
}
