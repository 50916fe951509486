package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tsmon"
)

// TestCheckFlags: a negative tenant, a chart narrower than minWidth and no
// report are usage errors, found before any report is read.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		tenant, width, reports int
		ok                     bool
	}{
		{tenant: 0, width: 64, reports: 1, ok: true},
		{tenant: 3, width: minWidth, reports: 2, ok: true},
		{tenant: -1, width: 64, reports: 1, ok: false},
		{tenant: 0, width: 3, reports: 1, ok: false},
		{tenant: 0, width: 0, reports: 1, ok: false},
		{tenant: -2, width: -1, reports: 1, ok: false},
		{tenant: 0, width: 64, reports: 0, ok: false},
	} {
		if err := checkFlags(tc.tenant, tc.width, tc.reports); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %d) = %v, want ok=%v", tc.tenant, tc.width, tc.reports, err, tc.ok)
		}
	}
}

// oneTenantReport is a three-window report of one tenant, "g0", presenting
// frames and carrying probe "x", with no motion-to-photon samples.
func oneTenantReport() *tsmon.MonReport {
	m := tsmon.New(tsmon.Config{Tenants: []tsmon.TenantConfig{{Name: "g0", FPSFloor: 30}}})
	tn := m.Tenant(0)
	tn.Probe("x", tsmon.ProbeGauge, func() float64 { return 1 })
	for w := time.Duration(0); w < 3; w++ {
		tn.FramePresented(w*tsmon.WindowWidth + time.Millisecond)
		m.Seal((w + 1) * tsmon.WindowWidth)
	}
	m.Finalize(3 * tsmon.WindowWidth)
	return m.Report()
}

// TestRenderSeries: a tenant or signal the report lacks is an error, not an
// empty chart; a known signal without samples prints "(no ... samples)".
func TestRenderSeries(t *testing.T) {
	r := oneTenantReport()
	for _, tc := range []struct {
		tenant int
		signal string
		want   string // substring of the chart; "" = an error
	}{
		{0, "fps", "g0 fps over windows 0..2"},
		{0, "probe:x", "g0 probe:x over windows 0..2"},
		{0, "m2p_p99_ms", `(no "m2p_p99_ms" samples for tenant 0)`},
		{9, "fps", ""},
		{1, "fps", ""},
		{0, "fsp", ""},
		{0, "probe:y", ""},
	} {
		chart, err := renderSeries(r, tc.tenant, tc.signal, 64)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("renderSeries(%d, %q) = %q, want an error", tc.tenant, tc.signal, chart)
		case tc.want != "" && (err != nil || !strings.Contains(chart, tc.want)):
			t.Errorf("renderSeries(%d, %q) = %q, %v; want %q", tc.tenant, tc.signal, chart, err, tc.want)
		}
	}
}
