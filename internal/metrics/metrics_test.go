package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDistributionEmpty(t *testing.T) {
	d := &Distribution{}
	if d.Count() != 0 || d.Mean() != 0 || d.Stddev() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty distribution should report zeros")
	}
	if d.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestDistributionBasicStats(t *testing.T) {
	d := &Distribution{}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		d.Add(v)
	}
	if d.Count() != 8 {
		t.Fatalf("Count = %d, want 8", d.Count())
	}
	if d.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", d.Mean())
	}
	if d.Stddev() != 2 {
		t.Fatalf("Stddev = %v, want 2", d.Stddev())
	}
	if d.Percentile(0) != 2 || d.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", d.Percentile(0), d.Max())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	d := &Distribution{}
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if got := d.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := d.Percentile(100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := d.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
}

func TestPercentileAfterLateAdd(t *testing.T) {
	d := &Distribution{}
	d.Add(1)
	d.Add(3)
	_ = d.Percentile(50) // forces a sort
	d.Add(2)             // must invalidate sort
	if got := d.Percentile(50); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestFractionBelow(t *testing.T) {
	d := &Distribution{}
	for _, v := range []float64{1, 2, 3, 4} {
		d.Add(v)
	}
	if got := d.FractionBelow(2); got != 0.5 {
		t.Errorf("FractionBelow(2) = %v, want 0.5 (inclusive)", got)
	}
	if got := d.FractionBelow(0.5); got != 0 {
		t.Errorf("FractionBelow(0.5) = %v, want 0", got)
	}
	if got := d.FractionAbove(3); got != 0.25 {
		t.Errorf("FractionAbove(3) = %v, want 0.25", got)
	}
}

func TestCDFShape(t *testing.T) {
	d := &Distribution{}
	for i := 0; i < 1000; i++ {
		d.Add(float64(i))
	}
	pts := d.CDF(50)
	if len(pts) != 50 {
		t.Fatalf("len = %d, want 50", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].F < pts[i-1].F {
			t.Fatal("CDF must be nondecreasing")
		}
	}
	if pts[len(pts)-1].F != 1 {
		t.Fatalf("final F = %v, want 1", pts[len(pts)-1].F)
	}
}

func TestAddDuration(t *testing.T) {
	d := &Distribution{}
	d.AddDuration(1500 * time.Microsecond)
	if got := d.Mean(); got != 1.5 {
		t.Fatalf("Mean = %v ms, want 1.5", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := &Distribution{}, &Distribution{}
	a.Add(1)
	b.Add(3)
	a.Merge(b)
	if a.Count() != 2 || a.Mean() != 2 {
		t.Fatalf("after merge: count=%d mean=%v, want 2/2", a.Count(), a.Mean())
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(vals []float64, q float64) bool {
		d := &Distribution{}
		any := false
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.Add(v)
				any = true
			}
		}
		if !any {
			return true
		}
		q = math.Mod(math.Abs(q), 100)
		p := d.Percentile(q)
		return p >= d.Percentile(0) && p <= d.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMeanBounded(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := &Distribution{}
		for i := 0; i < int(n)+1; i++ {
			d.Add(r.Float64() * 100)
		}
		return d.Mean() >= d.Percentile(0)-1e-9 && d.Mean() <= d.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFPSCounterBasic(t *testing.T) {
	c := &FPSCounter{}
	// 61 frames at exactly 60 FPS starting at t=0.
	for i := 0; i <= 60; i++ {
		c.Present(time.Duration(i) * time.Second / 60)
	}
	got := c.FPS(1 * time.Second)
	if math.Abs(got-60) > 0.01 {
		t.Fatalf("FPS = %v, want 60", got)
	}
	if c.Frames() != 61 {
		t.Fatalf("Frames = %d, want 61", c.Frames())
	}
}

func TestFPSCounterEmpty(t *testing.T) {
	c := &FPSCounter{}
	if c.FPS(time.Second) != 0 {
		t.Fatal("empty counter should report 0 FPS")
	}
}

func TestFPSCounterDropRate(t *testing.T) {
	c := &FPSCounter{}
	c.Present(0)
	c.Present(time.Second / 60)
	c.Present(2 * time.Second / 60)
	c.Drop()
	if c.Frames() != 3 || c.Dropped() != 1 {
		t.Fatalf("frames/dropped = %d/%d, want 3/1", c.Frames(), c.Dropped())
	}
}

func TestFPSPerSecond(t *testing.T) {
	c := &FPSCounter{}
	for i := 0; i < 90; i++ { // 60 in second 0, 30 in second 1
		var at time.Duration
		if i < 60 {
			at = time.Duration(i) * time.Second / 60
		} else {
			at = time.Second + time.Duration(i-60)*time.Second/30
		}
		c.Present(at)
	}
	ps := c.PerSecond(2 * time.Second)
	if len(ps) != 2 || ps[0] != 60 || ps[1] != 30 {
		t.Fatalf("PerSecond = %v, want [60 30]", ps)
	}
}

func TestStdErr(t *testing.T) {
	d := &Distribution{}
	for i := 0; i < 4; i++ {
		d.Add(float64(i%2) * 2) // 0,2,0,2 -> std 1, stderr 0.5
	}
	if got := d.StdErr(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("StdErr = %v, want 0.5", got)
	}
}
