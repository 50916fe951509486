package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func sampleReport(scale float64) *experiments.Report {
	return experiments.NewBenchReport(map[string][]experiments.BenchMetric{
		"micro": {
			{Name: "micro.access_latency_mean_ms", Value: 4.05 * scale, Unit: "ms", Better: "lower"},
			{Name: "micro.demand_fetch_coverage", Value: 0.99 / scale, Unit: "frac", Better: "higher"},
			{Name: "micro.frames", Value: 109, Unit: "count", Better: "higher"},
		},
	})
}

func writeReport(t *testing.T, r *experiments.Report, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// Self-diff must report zero regressions: equal inputs, equal values.
func TestSelfDiffClean(t *testing.T) {
	r := sampleReport(1)
	th := &thresholds{def: 0.05}
	if got := diff(os.Stdout, r, r, th); got != 0 {
		t.Fatalf("self-diff found %d regressions, want 0", got)
	}
}

// A seeded 10% slowdown on a lower-is-better metric must be flagged at the
// default 5% threshold; the coverage metric (higher-is-better) also drops
// past threshold at scale 1.1 and must be flagged too.
func TestSeededSlowdownFlagged(t *testing.T) {
	oldRep, newRep := sampleReport(1), sampleReport(1.1)
	th := &thresholds{def: 0.05}
	if got := diff(os.Stdout, oldRep, newRep, th); got != 2 {
		t.Fatalf("10%% slowdown produced %d regressions, want 2", got)
	}
}

// Per-metric overrides loosen or tighten individual metrics.
func TestPerMetricThreshold(t *testing.T) {
	th := &thresholds{def: 0.05}
	if err := th.Set("micro.access_latency_mean_ms=0.2"); err != nil {
		t.Fatal(err)
	}
	if err := th.Set("micro.demand_fetch_coverage=0.2"); err != nil {
		t.Fatal(err)
	}
	oldRep, newRep := sampleReport(1), sampleReport(1.1)
	if got := diff(os.Stdout, oldRep, newRep, th); got != 0 {
		t.Fatalf("loosened thresholds still produced %d regressions", got)
	}
	if th.for_("micro.frames") != 0.05 {
		t.Fatalf("default threshold not applied to unlisted metric")
	}
	if err := th.Set("bogus"); err == nil {
		t.Fatal("malformed -metric accepted")
	}
}

// Direction matters: an improvement in the good direction never fails.
func TestImprovementNotFlagged(t *testing.T) {
	oldRep, newRep := sampleReport(1.1), sampleReport(1)
	th := &thresholds{def: 0.05}
	if got := diff(os.Stdout, oldRep, newRep, th); got != 0 {
		t.Fatalf("improvement flagged as %d regressions", got)
	}
}

// New metrics are reported but never fail the run.
func TestTrajectoryGrowth(t *testing.T) {
	oldRep := sampleReport(1)
	newRep := experiments.NewBenchReport(map[string][]experiments.BenchMetric{
		"micro": append(sampleReport(1).Metrics,
			experiments.BenchMetric{Name: "micro.new_metric", Value: 1, Unit: "count", Better: "higher"}),
	})
	th := &thresholds{def: 0.05}
	if got := diff(os.Stdout, oldRep, newRep, th); got != 0 {
		t.Fatalf("trajectory growth produced %d failures", got)
	}
}

// A metric the baseline holds and the new report lacks fails the diff, one
// failure per dropped metric, whatever else the new report adds.
func TestDroppedMetricFails(t *testing.T) {
	all := sampleReport(1).Metrics
	extra := experiments.BenchMetric{Name: "micro.new_metric", Value: 1, Unit: "count", Better: "higher"}
	for _, tc := range []struct {
		name string
		kept []experiments.BenchMetric
		want int
	}{
		{"none dropped", all, 0},
		{"one dropped", all[1:], 1},
		{"one dropped, one added", append([]experiments.BenchMetric{extra}, all[1:]...), 1},
		{"all dropped", nil, len(all)},
		{"all dropped, one added", []experiments.BenchMetric{extra}, len(all)},
	} {
		newRep := experiments.NewBenchReport(map[string][]experiments.BenchMetric{"micro": tc.kept})
		if got := diff(os.Stdout, sampleReport(1), newRep, &thresholds{def: 0.05}); got != tc.want {
			t.Errorf("%s: %d failures, want %d", tc.name, got, tc.want)
		}
	}
}

// Round-trip through disk: the stable encoding reads back equal, and the
// file is byte-identical when rewritten.
func TestRoundTripStable(t *testing.T) {
	r := sampleReport(1)
	p1 := writeReport(t, r, "a.json")
	got, err := experiments.ReadBenchReportFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := writeReport(t, got, "b.json")
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Fatalf("re-encoded report differs:\n%s\nvs\n%s", b1, b2)
	}
	if m, ok := got.Lookup("micro.frames"); !ok || m.Value != 109 {
		t.Fatalf("lookup after round trip: %+v %v", m, ok)
	}
}

// TestCheckFlags: a negative or NaN threshold, as -threshold or in a
// -metric override, is a usage error; zero and positive fractions are
// accepted.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		val string
		ok  bool
	}{
		{"0", true},
		{"0.05", true},
		{"0.9", true},
		{"-0.1", false},
		{"-1", false},
		{"NaN", false},
		{"x", false},
	} {
		f, err := strconv.ParseFloat(tc.val, 64)
		if err == nil {
			err = checkThreshold(f)
		}
		if (err == nil) != tc.ok {
			t.Errorf("-threshold %s: %v, want ok=%v", tc.val, err, tc.ok)
		}
		if err := (&thresholds{}).Set("m=" + tc.val); (err == nil) != tc.ok {
			t.Errorf("-metric m=%s: %v, want ok=%v", tc.val, err, tc.ok)
		}
	}
}

// TestUnknownOverrideRejected: a -metric override naming a metric neither
// report holds is an error that names it; one naming a metric of either
// report is accepted.
func TestUnknownOverrideRejected(t *testing.T) {
	oldRep := sampleReport(1)
	newRep := experiments.NewBenchReport(map[string][]experiments.BenchMetric{
		"micro": append(sampleReport(1).Metrics,
			experiments.BenchMetric{Name: "micro.new_metric", Value: 1, Unit: "count", Better: "higher"}),
	})
	for _, tc := range []struct {
		override string
		ok       bool
	}{
		{"micro.frames=0.1", true},
		{"micro.new_metric=0.1", true},
		{"foo=2", false},
		{"micro.frame=0.1", false},
	} {
		th := &thresholds{def: 0.05}
		if err := th.Set(tc.override); err != nil {
			t.Fatal(err)
		}
		err := checkOverrides(th, oldRep, newRep)
		if (err == nil) != tc.ok {
			t.Errorf("-metric %s: %v, want ok=%v", tc.override, err, tc.ok)
		}
		if name, _, _ := strings.Cut(tc.override, "="); err != nil && !strings.Contains(err.Error(), name) {
			t.Errorf("-metric %s: error %q does not name the override", tc.override, err)
		}
	}
}
