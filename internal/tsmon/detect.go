package tsmon

// The detector layer: declarative specs (the same registry idiom as
// internal/tune's knob table) instantiated per tenant as small
// deterministic state machines, advanced once per sealed window in fixed
// (spec, tenant) order. Three classes:
//
//   - burn: dual-window SLO burn rate — fires when both a fast (recent)
//     and a slow (sustained) mean of an error-fraction signal exceed their
//     thresholds, the standard fast/slow burn-rate pairing that ignores
//     single-window blips but catches sustained SLO burn quickly.
//   - drift: EWMA changepoint — tracks an EWMA mean and an EWMA absolute
//     deviation of a window-mean signal; fires when the value departs the
//     mean by more than driftK deviations (plus an absolute floor) for
//     Consec consecutive windows. Catches regime changes with no fixed
//     bound.
//   - threshold: fixed bound — fires when the signal sits above zero, or
//     below the tenant's FPS floor, for Consec consecutive windows.
//
// Every fired detector enters a per-tenant holdoff for Holdoff windows so
// one sustained episode reports one incident, not one per window.

// Class names a detector family.
type Class string

// The three detector classes.
const (
	ClassBurn      Class = "burn"
	ClassDrift     Class = "drift"
	ClassThreshold Class = "threshold"
)

// The class parameters every detector of a class shares.
const (
	// Burn: window counts and mean-error thresholds for the fast and slow
	// windows.
	burnFastWindows = 4
	burnSlowWindows = 16
	burnFast        = 0.5
	burnSlow        = 0.25
	// Drift: EWMA weight, deviation multiplier, and windows of warmup
	// before arming.
	driftAlpha  = 0.25
	driftK      = 5
	driftWarmup = 8
)

// Spec declares one detector. Zero Consec, Holdoff and MinDelta take the
// class defaults filled in by normalize.
type Spec struct {
	// Name labels the detector in incidents (unique per registry).
	Name string
	// Class selects the state machine.
	Class Class
	// Signal is the watched series: a built-in signal name or
	// "probe:<name>". Tenants missing the signal never fire it.
	Signal string

	// Drift: the absolute departure floor that keeps a near-zero deviation
	// from firing on jitter (default 0.05 in the signal's unit).
	MinDelta float64

	// Threshold: the bound's direction, and TenantLimit, which reads the
	// bound from the tenant's FPSFloor (for per-tenant QoS floors declared
	// in TenantConfig) instead of zero.
	Below       bool
	TenantLimit bool

	// Consec is how many consecutive breaching windows fire the detector
	// (default 1 for burn, 2 for drift and threshold).
	Consec int
	// Holdoff suppresses re-firing for this many windows after an
	// incident (default 16).
	Holdoff int
}

// normalize fills class defaults in place.
func (s *Spec) normalize() {
	switch s.Class {
	case ClassBurn:
		if s.Consec <= 0 {
			s.Consec = 1
		}
	case ClassDrift:
		if s.MinDelta <= 0 {
			s.MinDelta = 0.05
		}
		if s.Consec <= 0 {
			s.Consec = 2
		}
	case ClassThreshold:
		if s.Consec <= 0 {
			s.Consec = 2
		}
	}
	if s.Holdoff <= 0 {
		s.Holdoff = 16
	}
}

// DefaultSpecs is the stock detector registry: one detector per class,
// wired to the QoS contract the tenant declares, plus a fence-timeout
// tripwire for tenants that register the probe.
func DefaultSpecs() []Spec {
	return []Spec{
		// Fast/slow dual-window motion-to-photon SLO burn rate.
		{Name: "slo-burn", Class: ClassBurn, Signal: "m2p_viol_frac"},
		// EWMA changepoint on the demand-fetch window mean.
		{Name: "fetch-drift", Class: ClassDrift, Signal: "fetch_mean_ms"},
		// Presented FPS under the tenant's declared floor.
		{Name: "fps-floor", Class: ClassThreshold, Signal: "fps",
			TenantLimit: true, Below: true, Consec: 3},
		// Any watchdog-abandoned fence waits in a window.
		{Name: "fence-timeouts", Class: ClassThreshold, Signal: "probe:fence_timeouts",
			Consec: 1, Holdoff: 8},
	}
}

// detState is one (spec, tenant) detector instance. All fields are plain
// values updated in window order, so equal window series produce equal
// firing decisions.
type detState struct {
	// burn: sliding ring of the last burnSlowWindows values.
	ring []float64
	head int
	n    int

	// drift.
	mean, dev float64
	warm      int

	consec  int
	holdoff int
}

func (d *detState) init(s *Spec) {
	s.normalize()
	if s.Class == ClassBurn {
		d.ring = make([]float64, burnSlowWindows)
	}
}

// step advances the instance with one sealed-window value and reports
// whether it fires, returning the observed value and the bound it crossed.
func (d *detState) step(s *Spec, tenant *TenantConfig, v float64) (fire bool, value, bound float64) {
	if d.holdoff > 0 {
		d.holdoff--
	}
	breach := false
	switch s.Class {
	case ClassBurn:
		d.ring[d.head] = v
		d.head = (d.head + 1) % len(d.ring)
		if d.n < len(d.ring) {
			d.n++
		}
		if d.n >= burnFastWindows {
			fast := d.tailMean(burnFastWindows)
			slow := d.tailMean(d.n)
			breach = fast >= burnFast && slow >= burnSlow
			value, bound = fast, burnFast
		}
	case ClassDrift:
		if d.warm < driftWarmup {
			d.seed(v)
			return false, 0, 0
		}
		dev := d.dev
		margin := driftK*dev + s.MinDelta
		delta := v - d.mean
		if delta < 0 {
			delta = -delta
		}
		breach = delta > margin
		value, bound = v, d.mean
		if !breach {
			// Track the regime only while inside it: a changepoint should
			// fire on sustained departure, not silently re-center on it.
			d.seed(v)
		}
	case ClassThreshold:
		limit := 0.0
		if s.TenantLimit {
			limit = tenant.FPSFloor
			if limit <= 0 {
				return false, 0, 0
			}
		}
		if s.Below {
			breach = v < limit
		} else {
			breach = v > limit
		}
		value, bound = v, limit
	}
	if !breach {
		d.consec = 0
		return false, 0, 0
	}
	d.consec++
	if d.consec < s.Consec || d.holdoff > 0 {
		return false, 0, 0
	}
	d.consec = 0
	d.holdoff = s.Holdoff
	if s.Class == ClassDrift {
		// Changepoint restart: re-learn the post-shift regime from scratch
		// so a persistent new level reads as one incident, not a refire
		// every Holdoff windows against the stale mean.
		d.warm, d.mean, d.dev = 0, 0, 0
	}
	return true, value, bound
}

// seed folds v into the drift EWMAs.
func (d *detState) seed(v float64) {
	if d.warm == 0 {
		d.mean = v
	} else {
		delta := v - d.mean
		if delta < 0 {
			delta = -delta
		}
		d.dev += driftAlpha * (delta - d.dev)
		d.mean += driftAlpha * (v - d.mean)
	}
	if d.warm < driftWarmup {
		d.warm++
	}
}

// tailMean averages the most recent k ring values.
func (d *detState) tailMean(k int) float64 {
	var sum float64
	for i := 1; i <= k; i++ {
		sum += d.ring[(d.head-i+len(d.ring))%len(d.ring)]
	}
	return sum / float64(k)
}

// detect runs every detector over a freshly sealed (non-partial) window.
func (m *Monitor) detect(w *Window) {
	for si := range m.specs {
		s := &m.specs[si]
		for ti := range m.tenants {
			v, ok := m.signalValue(s.Signal, w, ti)
			if !ok {
				continue
			}
			if fire, value, bound := m.dets[si][ti].step(s, &m.tenants[ti].cfg, v); fire {
				m.record(s, ti, w, value, bound)
			}
		}
	}
}
