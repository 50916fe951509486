package tsmon

import "strings"

// Signal is one named per-window, per-tenant series detectors can watch.
// value returns (value, ok); ok is false when the window carries no sample
// for the signal (e.g. a motion-to-photon fraction in a window with no
// measured frames), and detectors skip such windows without resetting.
type Signal struct {
	Name  string
	value func(s *TenantSample) (float64, bool)
}

// builtinSignals is the fixed signal registry; probe signals are addressed
// as "probe:<name>" and resolve against each tenant's registered probes.
var builtinSignals = []Signal{
	// fps: presented frames per second over the window (fps).
	{Name: "fps",
		value: func(s *TenantSample) (float64, bool) { return s.FPS, true }},
	// drop_frac: dropped / (presented + dropped) frames (frac).
	{Name: "drop_frac",
		value: func(s *TenantSample) (float64, bool) {
			n := s.Frames + s.Drops
			if n == 0 {
				return 0, false
			}
			return round6(float64(s.Drops) / float64(n)), true
		}},
	// m2p_viol_frac: motion-to-photon SLO violation fraction (frac).
	{Name: "m2p_viol_frac",
		value: func(s *TenantSample) (float64, bool) {
			if s.M2PCount == 0 {
				return 0, false
			}
			return s.M2PViolFrac, true
		}},
	// m2p_p99_ms: motion-to-photon p99 latency (ms).
	{Name: "m2p_p99_ms",
		value: func(s *TenantSample) (float64, bool) {
			if s.M2PCount == 0 {
				return 0, false
			}
			return s.M2PP99MS, true
		}},
	// fetch_mean_ms: demand-fetch mean latency (ms).
	{Name: "fetch_mean_ms",
		value: func(s *TenantSample) (float64, bool) {
			if s.FetchCount == 0 {
				return 0, false
			}
			return s.FetchMeanMS, true
		}},
	// fetch_p99_ms: demand-fetch p99 latency (ms).
	{Name: "fetch_p99_ms",
		value: func(s *TenantSample) (float64, bool) {
			if s.FetchCount == 0 {
				return 0, false
			}
			return s.FetchP99MS, true
		}},
	// fetch_count: demand fetches completed in the window (fetches).
	{Name: "fetch_count",
		value: func(s *TenantSample) (float64, bool) { return float64(s.FetchCount), true }},
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
			return builtinSignals[i].value(s)
		}
	}
	return 0, false
}
