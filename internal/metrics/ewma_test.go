package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAFirstObservationInitializes(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Warm() {
		t.Fatal("fresh EWMA should not be warm")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("Value = %v, want 10", e.Value())
	}
	if !e.Warm() || e.n != 1 {
		t.Fatal("should be warm with count 1")
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
	e.Observe(15)
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(100)
	for i := 0; i < 50; i++ {
		e.Observe(17)
	}
	if math.Abs(e.Value()-17) > 1e-9 {
		t.Fatalf("Value = %v, want ~17", e.Value())
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v should panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestQuickEWMABoundedByObservations(t *testing.T) {
	// The forecast always stays within [min, max] of the observations.
	f := func(raw []float64) bool {
		e := NewEWMA(0.5)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			e.Observe(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if !e.Warm() {
			return true
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
