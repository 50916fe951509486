package tsmon

import "strings"

// Signal is one named per-window, per-tenant series detectors can watch.
// Value returns (value, ok); ok is false when the window carries no sample
// for the signal (e.g. a motion-to-photon fraction in a window with no
// measured frames), and detectors skip such windows without resetting.
type Signal struct {
	Name string
	Desc string
	Unit string

	value func(s *TenantSample, span float64) (float64, bool)
}

// builtinSignals is the fixed signal registry; probe signals are addressed
// as "probe:<name>" and resolve against each tenant's registered probes.
var builtinSignals = []Signal{
	{Name: "fps", Desc: "presented frames per second over the window", Unit: "fps",
		value: func(s *TenantSample, _ float64) (float64, bool) { return s.FPS, true }},
	{Name: "drop_frac", Desc: "dropped / (presented + dropped) frames", Unit: "frac",
		value: func(s *TenantSample, _ float64) (float64, bool) {
			n := s.Frames + s.Drops
			if n == 0 {
				return 0, false
			}
			return round6(float64(s.Drops) / float64(n)), true
		}},
	{Name: "m2p_viol_frac", Desc: "motion-to-photon SLO violation fraction", Unit: "frac",
		value: func(s *TenantSample, _ float64) (float64, bool) {
			if s.M2PCount == 0 {
				return 0, false
			}
			return s.M2PViolFrac, true
		}},
	{Name: "m2p_p99_ms", Desc: "motion-to-photon p99 latency", Unit: "ms",
		value: func(s *TenantSample, _ float64) (float64, bool) {
			if s.M2PCount == 0 {
				return 0, false
			}
			return s.M2PP99MS, true
		}},
	{Name: "fetch_mean_ms", Desc: "demand-fetch mean latency", Unit: "ms",
		value: func(s *TenantSample, _ float64) (float64, bool) {
			if s.FetchCount == 0 {
				return 0, false
			}
			return s.FetchMeanMS, true
		}},
	{Name: "fetch_p99_ms", Desc: "demand-fetch p99 latency", Unit: "ms",
		value: func(s *TenantSample, _ float64) (float64, bool) {
			if s.FetchCount == 0 {
				return 0, false
			}
			return s.FetchP99MS, true
		}},
	{Name: "fetch_count", Desc: "demand fetches completed in the window", Unit: "fetches",
		value: func(s *TenantSample, _ float64) (float64, bool) { return float64(s.FetchCount), true }},
}

// signalValue extracts signal `name` for tenant ti from sealed window w,
// resolving "probe:<name>" against the tenant's registered probes. Missing
// probes and unknown names read as absent (ok=false) so a detector spec
// can be declared fleet-wide and stay inert on tenants without the probe.
func (m *Monitor) signalValue(name string, w *Window, ti int) (float64, bool) {
	s := &w.Tenants[ti]
	if pn, isProbe := strings.CutPrefix(name, "probe:"); isProbe {
		pi := m.tenants[ti].probeIndex(pn)
		if pi < 0 || pi >= len(s.Probes) {
			return 0, false
		}
		return s.Probes[pi], true
	}
	for i := range builtinSignals {
		if builtinSignals[i].Name == name {
			return builtinSignals[i].value(s, w.EndMS-w.StartMS)
		}
	}
	return 0, false
}
