package experiments

import "testing"

// TestJudge: the verdict reads the change in the metric's better
// direction, a change from a zero baseline never regresses, equal values
// are ok, and a change exactly at the threshold is within it.
func TestJudge(t *testing.T) {
	lower := func(v float64) BenchMetric { return BenchMetric{Name: "m", Value: v, Better: "lower"} }
	higher := func(v float64) BenchMetric { return BenchMetric{Name: "m", Value: v, Better: "higher"} }
	for _, tc := range []struct {
		name    string
		om, nm  BenchMetric
		rel     float64
		verdict string
	}{
		{"lower rises", lower(100), lower(110), 0.1, "REGRESSION"},
		{"lower falls", lower(100), lower(90), -0.1, "improvement"},
		{"higher falls", higher(100), higher(90), -0.1, "REGRESSION"},
		{"higher rises", higher(100), higher(110), 0.1, "improvement"},
		{"within threshold", lower(100), lower(104), 0.04, "ok"},
		{"exactly at threshold, lower", lower(100), lower(105), 0.05, "ok"},
		{"exactly at threshold, higher", higher(100), higher(95), -0.05, "ok"},
		{"equal", lower(3), lower(3), 0, "ok"},
		{"equal zeros", higher(0), higher(0), 0, "ok"},
		{"zero baseline", lower(0), lower(7), 0, "ok (zero baseline)"},
		{"negative baseline", lower(-100), lower(-90), 0.1, "REGRESSION"},
	} {
		rel, verdict := Judge(tc.om, tc.nm, DefaultThreshold)
		if rel != tc.rel || verdict != tc.verdict {
			t.Errorf("%s: Judge = (%v, %q), want (%v, %q)", tc.name, rel, verdict, tc.rel, tc.verdict)
		}
	}
}

// TestReportRegressed: Regressed names the first baseline metric, in name
// order, that the report lacks or regresses, ignores metrics only the
// report holds, and returns "" for a report that passes.
func TestReportRegressed(t *testing.T) {
	rep := func(ms ...BenchMetric) *Report { return NewBenchReport(map[string][]BenchMetric{"tune": ms}) }
	lat := func(v float64) BenchMetric { return BenchMetric{Name: "b.lat", Value: v, Better: "lower"} }
	fps := func(v float64) BenchMetric { return BenchMetric{Name: "a.fps", Value: v, Better: "higher"} }
	zero := func(v float64) BenchMetric { return BenchMetric{Name: "c.zero", Value: v, Better: "lower"} }
	base := rep(lat(10), fps(60), zero(0))
	for _, tc := range []struct {
		name string
		r    *Report
		want string
	}{
		{"itself", base, ""},
		{"improved", rep(lat(5), fps(61), zero(0)), ""},
		{"at the threshold", rep(lat(10.5), fps(57), zero(0)), ""},
		{"zero baseline grows", rep(lat(10), fps(60), zero(9)), ""},
		{"extra metric", rep(lat(10), fps(60), zero(0), BenchMetric{Name: "d.new", Value: 1e9, Better: "lower"}), ""},
		{"latency regressed", rep(lat(11), fps(60), zero(0)), "b.lat"},
		{"both regressed: first in name order", rep(lat(11), fps(50), zero(0)), "a.fps"},
		{"missing metric", rep(lat(10), zero(0)), "a.fps"},
		{"latency missing", rep(fps(60), zero(0)), "b.lat"},
		{"fps regressed, latency missing", rep(fps(50), zero(0)), "a.fps"},
	} {
		if got := tc.r.Regressed(base, DefaultThreshold); got != tc.want {
			t.Errorf("%s: Regressed = %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := rep(lat(10), fps(60), zero(0)).Regressed(base, 0); got != "" {
		t.Errorf("equal values at threshold 0: Regressed = %q, want none", got)
	}
}
