package fleetobs

import (
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h LogHistogram
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	for _, q := range []float64{0, 50, 95, 99, 100} {
		if got := h.Percentile(q); got != 0 {
			t.Fatalf("empty p%.0f = %g, want 0", q, got)
		}
	}
	if h.Mean() != 0 {
		t.Fatalf("empty mean = %g, want 0", h.Mean())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h LogHistogram
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	// Every percentile of a single sample lands in the same bucket.
	want := h.Percentile(50)
	if want <= 0 {
		t.Fatalf("p50 = %g, want > 0", want)
	}
	for _, q := range []float64{0, 1, 50, 95, 99, 100} {
		if got := h.Percentile(q); got != want {
			t.Fatalf("p%.0f = %g, want %g", q, got, want)
		}
	}
	if got := h.Mean(); got != want {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	// The representative must bracket the sample within one bucket's
	// growth factor.
	if want > 3*histGrowth || want < 3/histGrowth {
		t.Fatalf("p50 %g too far from sample 3 ms", want)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	for i := 1; i < len(histBounds); i++ {
		if histBounds[i] <= histBounds[i-1] {
			t.Fatalf("bounds not ascending at %d", i)
		}
	}
	// Inclusive upper bounds: the boundary value stays in its bucket, a
	// hair above moves to the next.
	for i := 0; i < len(histBounds)-1; i++ {
		if got := bucketOf(histBounds[i]); got != i {
			t.Fatalf("bucketOf(bound %d) = %d", i, got)
		}
		if got := bucketOf(histBounds[i] * 1.0001); got != i+1 {
			t.Fatalf("bucketOf(just above bound %d) = %d, want %d", i, got, i+1)
		}
	}
	// Extremes land in the edge buckets instead of panicking.
	if bucketOf(0) != 0 || bucketOf(-5) != 0 {
		t.Fatalf("non-positive samples must land in bucket 0")
	}
	if got := bucketOf(1e12); got != histBuckets-1 {
		t.Fatalf("overflow sample in bucket %d, want %d", got, histBuckets-1)
	}
}

// TestHistogramMergeOrderIndependent pins the property the fleet report's
// determinism leans on: per-tenant histograms merge to the same result in
// any order, including interleaved with direct observation.
func TestHistogramMergeOrderIndependent(t *testing.T) {
	samples := [][]float64{
		{0.1, 0.5, 2, 2, 9, 40},
		{0.02, 3, 3, 3, 700},
		{15, 0.004, 88, 1e6, 0},
	}
	build := func(order []int) *LogHistogram {
		var parts []LogHistogram
		for _, s := range samples {
			var h LogHistogram
			for _, v := range s {
				h.Observe(v)
			}
			parts = append(parts, h)
		}
		var out LogHistogram
		for _, i := range order {
			out.Merge(&parts[i])
		}
		return &out
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	c := build([]int{1, 2, 0})
	if *a != *b || *a != *c {
		t.Fatalf("merge order changed the histogram")
	}
	for _, q := range []float64{50, 95, 99} {
		if a.Percentile(q) != b.Percentile(q) {
			t.Fatalf("merge order changed p%.0f", q)
		}
	}
	if a.Mean() != b.Mean() {
		t.Fatalf("merge order changed the mean")
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	var h LogHistogram
	if allocs := testing.AllocsPerRun(100, func() {
		h.Observe(3.7)
		h.ObserveDuration(900 * time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %.1f per run, want 0", allocs)
	}
}
