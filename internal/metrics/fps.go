package metrics

import "time"

// FPSCounter tracks frame presentation over virtual time and reports the
// average frame rate plus per-second instantaneous rates, mirroring how the
// paper samples FPS through `adb dumpsys` (§5.3).
type FPSCounter struct {
	frames    int
	dropped   int
	hasFirst  bool
	first     time.Duration
	last      time.Duration
	perSecond map[int64]int
}

// Present records a frame presented at virtual time t.
func (c *FPSCounter) Present(t time.Duration) {
	if !c.hasFirst {
		c.first = t
		c.hasFirst = true
	}
	if c.perSecond == nil {
		c.perSecond = make(map[int64]int)
	}
	c.last = t
	c.frames++
	c.perSecond[int64(t/time.Second)]++
}

// Drop records a frame that missed its deadline and was discarded.
func (c *FPSCounter) Drop() { c.dropped++ }

// Frames returns the number of presented frames.
func (c *FPSCounter) Frames() int { return c.frames }

// Dropped returns the number of dropped frames.
func (c *FPSCounter) Dropped() int { return c.dropped }

// FPS returns presented frames divided by the observation span. The span is
// measured from the first presented frame to end; pass the workload duration
// as end.
func (c *FPSCounter) FPS(end time.Duration) float64 {
	if c.frames == 0 {
		return 0
	}
	span := end - c.first
	if span <= 0 {
		return 0
	}
	return float64(c.frames-1) / span.Seconds()
}

// PerSecond returns the instantaneous FPS measured in each whole second of
// the run, indexed from second 0; missing seconds read zero.
func (c *FPSCounter) PerSecond(end time.Duration) []float64 {
	n := int(end / time.Second)
	out := make([]float64, n)
	for s, f := range c.perSecond {
		if int(s) < n {
			out[s] = float64(f)
		}
	}
	return out
}
