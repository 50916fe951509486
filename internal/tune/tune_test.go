package tune

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/hostsim"
)

// metric is a planted measurement: Search reads the objective by name and
// gates every metric the baseline holds.
type metric = experiments.BenchMetric

// frames is the planted reports' frame count, named as the Fig. 16
// experiment names it.
const frames = "fig16.frames"

// planted is an evaluator over a planted landscape: obj gives each
// candidate's demand-fetch mean, frames (when set) its fig16.frames, 100
// otherwise, and guard (when set) a "guard" metric. It counts its calls,
// how often it measured each config, and keeps the reports it returned.
type planted struct {
	obj, frames, guard func(c hostsim.FetchConfig) float64
	batches            int
	measured           map[hostsim.FetchConfig]int
	reps               []*experiments.Report
}

func (e *planted) eval(cands []hostsim.FetchConfig) []*experiments.Report {
	e.batches++
	if e.measured == nil {
		e.measured = map[hostsim.FetchConfig]int{}
	}
	e.reps = make([]*experiments.Report, len(cands))
	for i, c := range cands {
		e.measured[c]++
		n := 100.0
		if e.frames != nil {
			n = e.frames(c)
		}
		ms := []metric{
			{Name: objective, Value: e.obj(c), Unit: "ms", Better: "lower"},
			{Name: frames, Value: n, Unit: "count", Better: "higher"},
		}
		if e.guard != nil {
			ms = append(ms, metric{Name: "guard", Value: e.guard(c), Unit: "x", Better: "lower"})
		}
		e.reps[i] = experiments.NewBenchReport(map[string][]metric{"fig16": ms})
	}
	return e.reps
}

func (e *planted) search() *Result { return Search("test", candidates(), e.eval) }

// fc builds an enabled candidate from KiB sizes and a depth.
func fc(chunkKiB, dmaKiB hostsim.Bytes, depth int) hostsim.FetchConfig {
	return hostsim.FetchConfig{ChunkBytes: chunkKiB * hostsim.KiB, DMAThreshold: dmaKiB * hostsim.KiB, MaxInflight: depth}
}

// at returns an objective that reads low at the listed configs and high
// everywhere else.
func at(low map[hostsim.FetchConfig]float64) func(hostsim.FetchConfig) float64 {
	return func(c hostsim.FetchConfig) float64 {
		if v, ok := low[c]; ok {
			return v
		}
		return 5
	}
}

func bestConfig(r *Result) hostsim.FetchConfig { return r.Trace[r.best].Config }

func TestSearchDeterministic(t *testing.T) {
	run := func() *Result {
		return (&planted{obj: func(c hostsim.FetchConfig) float64 {
			return float64(c.ChunkBytes/hostsim.KiB%7) + float64(c.MaxInflight)/3
		}}).search()
	}
	a, b := run(), run()
	if at, bt := a.FormatTrace(), b.FormatTrace(); at != bt {
		t.Fatalf("equal inputs produced different traces:\n--- a\n%s--- b\n%s", at, bt)
	}
	if ar, br := a.FormatResult(), b.FormatResult(); ar != br {
		t.Fatalf("equal inputs produced different results:\n--- a\n%s--- b\n%s", ar, br)
	}
}

// TestSearchFindsDistantOptimum: the baseline sits in a local minimum (the
// nearest candidates, 64 KiB chunks, read worse, and so does every other
// but one) and the only global optimum lies at the far corner of the grid.
// Enumeration finds it, measuring every candidate exactly once in a single
// evaluator call, the baseline first.
func TestSearchFindsDistantOptimum(t *testing.T) {
	target := fc(4096, 256, 16)
	ev := &planted{obj: func(c hostsim.FetchConfig) float64 {
		switch {
		case c == target:
			return 0
		case !c.Enabled():
			return 1
		case c.ChunkBytes == 64*hostsim.KiB:
			return 2
		}
		return 1.5
	}}
	res := ev.search()
	if bestConfig(res) != target || res.best == 0 {
		t.Fatalf("best = %+v, want planted optimum %+v\ntrace:\n%s", bestConfig(res), target, res.FormatTrace())
	}
	if m, _ := res.Best.Lookup(objective); m.Value != 0 {
		t.Fatalf("best report reads %v, want the optimum's 0", m.Value)
	}
	if ev.batches != 1 {
		t.Fatalf("%d evaluator calls, want one batch", ev.batches)
	}
	if len(ev.measured) != 49 || len(res.Trace) != 49 {
		t.Fatalf("measured %d distinct configs in %d steps, want all 49", len(ev.measured), len(res.Trace))
	}
	for c, n := range ev.measured {
		if n != 1 {
			t.Fatalf("config %+v measured %d times", c, n)
		}
	}
	if res.Trace[0].Config != (hostsim.FetchConfig{}) {
		t.Fatalf("first candidate %+v, want the zero config", res.Trace[0].Config)
	}
}

// TestFetchSpaceCandidates: the list holds 1 + 4x3x4 = 49 candidates, the
// zero config first, each resolving to a distinct fetch config.
func TestFetchSpaceCandidates(t *testing.T) {
	cands := candidates()
	if len(cands) != 49 {
		t.Fatalf("%d candidates, want 49", len(cands))
	}
	if cands[0] != (hostsim.FetchConfig{}) {
		t.Fatalf("first candidate %+v, want the zero config", cands[0])
	}
	seen := map[hostsim.FetchConfig]bool{}
	for _, c := range cands {
		r := c.Resolved()
		if seen[r] {
			t.Fatalf("candidate %s repeats fetch config %+v", format(c), r)
		}
		seen[r] = true
	}
}

// TestTiesKeepFewerNonDefaultKnobs: with nothing strictly better than the
// baseline, the best is the baseline; of two candidates with equal
// objective values the one setting fewer knobs away from their defaults
// wins, even when measured later, and of two that also set equally many,
// the earlier.
func TestTiesKeepFewerNonDefaultKnobs(t *testing.T) {
	flat := (&planted{obj: func(hostsim.FetchConfig) float64 { return 1 }}).search()
	if flat.best != 0 || bestConfig(flat) != (hostsim.FetchConfig{}) {
		t.Fatalf("flat landscape: best %+v (index %d), want the baseline", bestConfig(flat), flat.best)
	}
	if got := flat.FormatResult(); !strings.Contains(got, "best = shipped defaults") {
		t.Fatalf("flat landscape result does not report the defaults:\n%s", got)
	}
	for _, tc := range []struct {
		low  []hostsim.FetchConfig
		want hostsim.FetchConfig
	}{
		{[]hostsim.FetchConfig{fc(64, 16, 2), fc(1024, 64, 4)}, fc(1024, 64, 4)},
		{[]hostsim.FetchConfig{fc(64, 64, 4), fc(256, 64, 4)}, fc(64, 64, 4)},
		{[]hostsim.FetchConfig{fc(256, 16, 4), fc(256, 64, 16)}, fc(256, 16, 4)},
	} {
		low := map[hostsim.FetchConfig]float64{}
		for _, c := range tc.low {
			low[c] = 0
		}
		if res := (&planted{obj: at(low)}).search(); bestConfig(res) != tc.want {
			t.Errorf("tie between %s: best %s, want %s", format(tc.low[0])+" "+format(tc.low[1]),
				format(bestConfig(res)), format(tc.want))
		}
	}
}

// TestConstraintViolationsRejected: every candidate that regresses a
// baseline metric past the gate is rejected, naming that metric, and never
// becomes the best, however good its objective.
func TestConstraintViolationsRejected(t *testing.T) {
	big := func(c hostsim.FetchConfig) bool { return c.ChunkBytes >= 1024*hostsim.KiB }
	ev := &planted{
		obj: func(c hostsim.FetchConfig) float64 {
			if big(c) {
				return 0.5
			}
			return 2 - float64(c.MaxInflight)/16
		},
		guard: func(c hostsim.FetchConfig) float64 {
			if big(c) {
				return 10
			}
			return 1
		},
	}
	res := ev.search()
	rejected := 0
	for _, st := range res.Trace {
		if st.Violated != "" {
			rejected++
		}
		if st.Violated != "" && st.Best {
			t.Fatalf("infeasible step marked best: %+v", st)
		}
		if big(st.Config) != (st.Violated == "guard") {
			t.Fatalf("step %s: violated %q", format(st.Config), st.Violated)
		}
	}
	if rejected != 24 {
		t.Fatalf("%d rejected candidates, want the 24 with chunks of 1 MiB or more\ntrace:\n%s", rejected, res.FormatTrace())
	}
	if big(bestConfig(res)) {
		t.Fatalf("infeasible candidate won: %s", format(bestConfig(res)))
	}
	if g, _ := res.Best.Lookup("guard"); g.Value != 1 {
		t.Fatalf("best violates the guard: %v", g.Value)
	}
}

// TestBestPassesTheGate: the objective-best candidate regresses a metric
// no objective names (fig16.frames -6%), so it must lose to the best
// candidate that passes the gate; and every candidate the trace calls
// feasible passes Regressed against the baseline, so the -out pair passes
// cmd/vsocperf by construction.
func TestBestPassesTheGate(t *testing.T) {
	cheat, honest := fc(4096, 16, 2), fc(1024, 64, 16)
	ev := &planted{
		obj: at(map[hostsim.FetchConfig]float64{cheat: 0.5, honest: 1}),
		frames: func(c hostsim.FetchConfig) float64 {
			if c == cheat {
				return 94
			}
			return 100
		},
	}
	res := ev.search()
	if bestConfig(res) != honest {
		t.Fatalf("best %s, want %s: the objective-best regresses fig16.frames\ntrace:\n%s",
			format(bestConfig(res)), format(honest), res.FormatTrace())
	}
	for i, st := range res.Trace {
		if st.Config == cheat && st.Violated != frames {
			t.Errorf("objective-best candidate: violated %q, want %s", st.Violated, frames)
		}
		if got := ev.reps[i].Regressed(res.Baseline, experiments.DefaultThreshold); st.Violated != got {
			t.Errorf("step %d %s: violated %q, but the gate says %q", i, format(st.Config), st.Violated, got)
		}
	}
	if got := res.Best.Regressed(res.Baseline, experiments.DefaultThreshold); got != "" {
		t.Fatalf("best regresses %s against the baseline", got)
	}
}

// TestSpaceKeysAndFormat: a config renders only its non-default knobs, a
// disabled one renders as the defaults whatever its other knobs hold (they
// are never read), and the knob table's default column is the shipped
// default.
func TestSpaceKeysAndFormat(t *testing.T) {
	for _, tc := range []struct {
		c    hostsim.FetchConfig
		want string
	}{
		{hostsim.FetchConfig{}, "{defaults}"},
		{hostsim.FetchConfig{DMAThreshold: 16 * hostsim.KiB, MaxInflight: 2}, "{defaults}"},
		{fc(64, 64, 4), "{fetch.chunk_kib=64KiB}"},
		{fc(1024, 64, 16), "{fetch.chunk_kib=1024KiB fetch.max_inflight=16}"},
		{fc(4096, 256, 2), "{fetch.chunk_kib=4096KiB fetch.dma_threshold_kib=256KiB fetch.max_inflight=2}"},
	} {
		if got := format(tc.c); got != tc.want {
			t.Errorf("format(%+v) = %q, want %q", tc.c, got, tc.want)
		}
	}
	if got, want := levels(hostsim.FetchConfig{}), [3]string{"off", "64KiB", "4"}; got != want {
		t.Fatalf("default levels %v, want %v", got, want)
	}
}

// TestBaselineIsTheFig16Report: a candidate is scored by the Fig. 16
// experiment's bench report, so the zero config's report on
// vSoC-noprefetch, the preset the fig16 entry runs without -fetch, equals
// that entry's report at the same config metric for metric.
func TestBaselineIsTheFig16Report(t *testing.T) {
	cfg := experiments.Config{Duration: time.Second, AppsPerCategory: 1, Seed: 1, Workers: 2}
	res := Run(cfg, emulator.VSoCNoPrefetch())
	e, _ := experiments.LookupExperiment("fig16")
	_, ms, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.NewBenchReport(map[string][]experiments.BenchMetric{"fig16": ms})
	if len(want.Metrics) != 7 || !reflect.DeepEqual(res.Baseline, want) {
		t.Fatalf("tuner baseline differs from the fig16 entry's report:\n%+v\n%+v", res.Baseline, want)
	}
}
