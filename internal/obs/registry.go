package obs

import "repro/internal/metrics"

// Registry is the named metrics view behind the -metrics dump. It keeps no
// counts of its own: each instrumented layer registers, at construction, a
// closure over a count it already keeps (CounterFunc) or over one of its
// own sample distributions (HistogramFunc), and Snapshot reads them when
// asked. Gauges sample a series no layer keeps, so they are the only push
// instruments. Several registrations under one name read as one metric —
// counters sum, distributions pool their samples — so two objects of one
// kind in an environment (the emulator's and the DMA engine's fence
// tables) report one total.
//
// A nil *Registry is a valid receiver: registration is a no-op and Gauge
// returns a nil handle whose Set is a no-op. Layers register only when a
// registry is attached, so with metrics off they carry no registry code
// on any per-event path.
//
// Registration order does not matter; Snapshot sorts by name.
type Registry struct {
	counters map[string][]func() int64
	gauges   map[string]*Gauge
	hists    map[string][]func() *metrics.Distribution
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string][]func() int64),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string][]func() *metrics.Distribution),
	}
}

// CounterFunc registers read as a source of the named counter: a closure
// over a monotonically increasing count its caller keeps.
func (r *Registry) CounterFunc(name string, read func() int64) {
	if r == nil {
		return
	}
	r.counters[name] = append(r.counters[name], read)
}

// Count registers *n, an int count its caller keeps, as a source of the
// named counter.
func (r *Registry) Count(name string, n *int) {
	if r == nil {
		return
	}
	r.CounterFunc(name, func() int64 { return int64(*n) })
}

// HistogramFunc registers read as a source of the named histogram: a
// closure returning a sample distribution its caller keeps. Snapshot
// never modifies the distribution it reads.
func (r *Registry) HistogramFunc(name string, read func() *metrics.Distribution) {
	if r == nil {
		return
	}
	r.hists[name] = append(r.hists[name], read)
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
