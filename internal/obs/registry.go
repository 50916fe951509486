package obs

import (
	"math"
	"time"

	"repro/internal/metrics"
)

// Registry holds named counters, gauges, and histograms. A nil *Registry
// is a valid receiver: its getters return nil handles, whose methods are
// in turn nil-safe no-ops — so instrumented code pays one pointer check
// when metrics are off.
//
// Registration order does not matter; Snapshot sorts by name.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing integer metric. Its value is
// clamped to [0, math.MaxInt64]: a negative Add delta (a caller folding a
// correction, or a re-registered name re-counting from a smaller base)
// saturates at zero instead of going negative, and a positive delta that
// would wrap past MaxInt64 saturates there — Snapshot and the exporters
// never see a negative or wrapped counter.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	if c.n == math.MaxInt64 {
		return
	}
	c.n++
}

// Add adds d, saturating at the [0, MaxInt64] clamp (see Counter).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	n := c.n + d
	if d > 0 && n < c.n {
		n = math.MaxInt64
	}
	if n < 0 {
		n = 0
	}
	c.n = n
}

// Gauge is a last-value metric with an EWMA-smoothed companion (the
// paper's alpha = 0.5 smoother), useful for noisy instantaneous readings
// like temperature or queue depth.
type Gauge struct {
	v    float64
	n    int64
	ewma metrics.EWMA
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	g.n++
	g.ewma.Observe(v)
}

// Histogram accumulates float64 samples with percentile queries, backed by
// metrics.Distribution.
type Histogram struct{ d metrics.Distribution }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.d.Add(v)
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(v time.Duration) {
	if h == nil {
		return
	}
	h.d.AddDuration(v)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{ewma: *metrics.NewEWMA(metrics.DefaultAlpha)}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}
