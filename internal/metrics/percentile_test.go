package metrics

import "testing"

// TestPercentileEmpty pins the empty-distribution contract: every quantile,
// including the clamped extremes, is 0.
func TestPercentileEmpty(t *testing.T) {
	var d Distribution
	for _, q := range []float64{-5, 0, 50, 99, 100, 150} {
		if got := d.Percentile(q); got != 0 {
			t.Errorf("empty Percentile(%v) = %v, want 0", q, got)
		}
	}
	if d.Percentile(50) != 0 {
		t.Errorf("empty Median() = %v, want 0", d.Percentile(50))
	}
}

// TestPercentileSingleSample: with one sample, every quantile — and the
// out-of-range clamps — must return that sample.
func TestPercentileSingleSample(t *testing.T) {
	var d Distribution
	d.Add(42.5)
	for _, q := range []float64{-1, 0, 0.01, 25, 50, 75, 99.99, 100, 200} {
		if got := d.Percentile(q); got != 42.5 {
			t.Errorf("single-sample Percentile(%v) = %v, want 42.5", q, got)
		}
	}
}

// TestPercentileDuplicateHeavy: a distribution dominated by one repeated
// value must report that value across the bulk quantiles, with the outliers
// visible only at the extremes.
func TestPercentileDuplicateHeavy(t *testing.T) {
	var d Distribution
	for i := 0; i < 98; i++ {
		d.Add(7)
	}
	d.Add(1)   // single low outlier
	d.Add(100) // single high outlier
	for _, q := range []float64{5, 25, 50, 75, 95} {
		if got := d.Percentile(q); got != 7 {
			t.Errorf("duplicate-heavy Percentile(%v) = %v, want 7", q, got)
		}
	}
	if got := d.Percentile(0); got != 1 {
		t.Errorf("Percentile(0) = %v, want 1", got)
	}
	if got := d.Percentile(100); got != 100 {
		t.Errorf("Percentile(100) = %v, want 100", got)
	}
	// All-duplicates: every quantile is the value itself.
	var e Distribution
	for i := 0; i < 50; i++ {
		e.Add(3)
	}
	for _, q := range []float64{0, 1, 50, 99, 100} {
		if got := e.Percentile(q); got != 3 {
			t.Errorf("all-duplicate Percentile(%v) = %v, want 3", q, got)
		}
	}
}
