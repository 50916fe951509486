package tune

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hostsim"
)

// testSpace is a synthetic 3-knob space (5 levels each, defaults at level
// 0) for exercising the search driver without simulations. Each knob
// writes its own fetch-config field with chunking always on, so all 125
// vectors resolve to distinct configs and none is deduplicated.
func testSpace() Space {
	mk := func(name string, set func(c *hostsim.FetchConfig, n int)) Knob {
		return Knob{Name: name, Levels: []float64{0, 1, 2, 3, 4}, Default: 0,
			Set: func(c *hostsim.FetchConfig, v float64) { set(c, int(v)+1) }}
	}
	return Space{Knobs: []Knob{
		mk("a", func(c *hostsim.FetchConfig, n int) { c.ChunkBytes = hostsim.Bytes(n) }),
		mk("b", func(c *hostsim.FetchConfig, n int) { c.DMAThreshold = hostsim.Bytes(n) }),
		mk("c", func(c *hostsim.FetchConfig, n int) { c.MaxInflight = n }),
	}}
}

// planted is an evaluator over a planted objective landscape, plus a
// "guard" constraint metric that jumps in the penalized region. Metrics
// are returned sorted by name (guard < obj), matching the normalization
// contract of the real evaluator. It counts its calls and how often it
// measured each vector.
type planted struct {
	obj      func(v Vector) float64
	penalize func(v Vector) bool
	batches  int // EvaluateBatch calls
	measured map[string]int
}

func (e *planted) EvaluateBatch(vs []Vector) []Metrics {
	e.batches++
	if e.measured == nil {
		e.measured = map[string]int{}
	}
	out := make([]Metrics, len(vs))
	for i, v := range vs {
		e.measured[fmt.Sprint(v)]++
		guard := 1.0
		if e.penalize != nil && e.penalize(v) {
			guard = 10
		}
		out[i] = Metrics{
			{Name: "guard", Value: guard, Unit: "x", Better: "lower"},
			{Name: "obj", Value: e.obj(v), Unit: "x", Better: "lower"},
		}
	}
	return out
}

// dist2 is the squared level distance between v and target.
func dist2(v, target Vector) float64 {
	d2 := 0.0
	for i := range v {
		d := float64(v[i] - target[i])
		d2 += d * d
	}
	return d2
}

// quad is a separable quadratic with its one optimum at target.
func quad(target Vector) func(Vector) float64 {
	return func(v Vector) float64 { return dist2(v, target) }
}

func testObjective() Objective {
	return Objective{
		Metric:      "obj",
		Constraints: []Constraint{{Metric: "guard", MaxRel: 1.05}},
	}
}

func TestSearchDeterministic(t *testing.T) {
	run := func() *Result {
		return Search("test", testSpace(), &planted{obj: quad(Vector{3, 1, 2})}, testObjective())
	}
	a, b := run(), run()
	if at, bt := a.FormatTrace(), b.FormatTrace(); at != bt {
		t.Fatalf("equal inputs produced different traces:\n--- a\n%s--- b\n%s", at, bt)
	}
	if ar, br := a.FormatResult(), b.FormatResult(); ar != br {
		t.Fatalf("equal inputs produced different results:\n--- a\n%s--- b\n%s", ar, br)
	}
}

// TestSearchFindsDistantOptimum: the defaults sit in a local minimum (every
// neighbor is worse) and the only global optimum lies several levels
// away. Enumeration finds it, measuring every distinct vector exactly once
// in a single evaluator call, the defaults first.
func TestSearchFindsDistantOptimum(t *testing.T) {
	target := Vector{3, 1, 4}
	ev := &planted{obj: func(v Vector) float64 {
		return min(1+dist2(v, Vector{0, 0, 0}), dist2(v, target))
	}}
	res := Search("test", testSpace(), ev, testObjective())
	if !reflect.DeepEqual(res.BestVec, target) || res.Best.Value("obj") != 0 || res.BestIsBaseline {
		t.Fatalf("best = %v (obj %v), want planted optimum %v\ntrace:\n%s",
			res.BestVec, res.Best.Value("obj"), target, res.FormatTrace())
	}
	if ev.batches != 1 {
		t.Fatalf("%d evaluator calls, want one batch", ev.batches)
	}
	if len(ev.measured) != 125 || len(res.Trace) != 125 {
		t.Fatalf("measured %d distinct vectors in %d steps, want all 125", len(ev.measured), len(res.Trace))
	}
	for v, n := range ev.measured {
		if n != 1 {
			t.Fatalf("vector %s measured %d times", v, n)
		}
	}
	if !reflect.DeepEqual(res.Trace[0].Vec, testSpace().DefaultVector()) {
		t.Fatalf("first candidate %v, want the defaults", res.Trace[0].Vec)
	}
}

// TestFetchSpaceCandidates: the one space holds exactly the three fetch
// knobs, and with chunking off neither other knob is read, so it yields
// 1 + 4x3x4 = 49 candidates, the defaults first, each resolving to a
// distinct fetch config.
func TestFetchSpaceCandidates(t *testing.T) {
	sp := FetchSpace()
	var names []string
	for _, k := range sp.Knobs {
		names = append(names, k.Name)
		if k.Default < 0 || k.Default >= len(k.Levels) {
			t.Errorf("knob %s default index %d out of range", k.Name, k.Default)
		}
		if k.Set == nil {
			t.Errorf("knob %s has no setter", k.Name)
		}
	}
	if want := []string{KnobFetchChunk, KnobFetchDMAThreshold, KnobFetchMaxInflight}; !reflect.DeepEqual(names, want) {
		t.Fatalf("fetch space knobs = %v, want %v", names, want)
	}
	vecs := candidates(sp)
	if len(vecs) != 49 {
		t.Fatalf("%d candidates, want 49", len(vecs))
	}
	if !reflect.DeepEqual(vecs[0], sp.DefaultVector()) {
		t.Fatalf("first candidate %v, want the defaults", vecs[0])
	}
	if c := sp.Config(vecs[0]).Resolved(); c != (hostsim.FetchConfig{}) {
		t.Fatalf("defaults resolve to %+v, want chunking off", c)
	}
	seen := map[hostsim.FetchConfig]bool{}
	for _, v := range vecs {
		c := sp.Config(v).Resolved()
		if seen[c] {
			t.Fatalf("candidate %s repeats fetch config %+v", sp.Format(v), c)
		}
		seen[c] = true
	}
}

// TestTiesKeepFewerNonDefaultKnobs: with nothing strictly better than the
// baseline, the best is the baseline; of two vectors with equal objective
// values the one setting fewer knobs away from their defaults wins, even
// when measured later, and of two that also set equally many, the earlier.
func TestTiesKeepFewerNonDefaultKnobs(t *testing.T) {
	flat := Search("test", testSpace(), &planted{obj: func(Vector) float64 { return 1 }}, testObjective())
	if !flat.BestIsBaseline || !reflect.DeepEqual(flat.BestVec, testSpace().DefaultVector()) {
		t.Fatalf("flat landscape: best %v (baseline %v), want the defaults", flat.BestVec, flat.BestIsBaseline)
	}
	if got := flat.FormatResult(); !strings.Contains(got, "best = shipped defaults") {
		t.Fatalf("flat landscape result does not report the defaults:\n%s", got)
	}
	for _, tc := range []struct {
		low  []Vector
		want Vector
	}{
		{[]Vector{{0, 1, 1}, {2, 0, 0}}, Vector{2, 0, 0}},
		{[]Vector{{0, 3, 0}, {0, 0, 3}}, Vector{0, 0, 3}},
	} {
		ev := &planted{obj: func(v Vector) float64 {
			for _, l := range tc.low {
				if reflect.DeepEqual(v, l) {
					return 0
				}
			}
			return 5
		}}
		if res := Search("test", testSpace(), ev, testObjective()); !reflect.DeepEqual(res.BestVec, tc.want) {
			t.Errorf("tie between %v: best %v, want %v", tc.low, res.BestVec, tc.want)
		}
	}
}

func TestConstraintViolationsRejected(t *testing.T) {
	// The entire improving half-space around the optimum violates the
	// guard, leaving only mild improvements feasible.
	ev := &planted{
		obj:      quad(Vector{3, 1, 2}),
		penalize: func(v Vector) bool { return v[0] >= 2 },
	}
	res := Search("test", testSpace(), ev, testObjective())
	if res.Rejected == 0 {
		t.Fatalf("expected rejected candidates, got none\ntrace:\n%s", res.FormatTrace())
	}
	if res.BestVec[0] >= 2 {
		t.Fatalf("infeasible vector won: %v", res.BestVec)
	}
	for _, st := range res.Trace {
		if !st.Feasible && st.Best {
			t.Fatalf("infeasible step marked best: %+v", st)
		}
		if !st.Feasible && st.Violated != "guard" {
			t.Fatalf("infeasible step names %q, want guard", st.Violated)
		}
	}
	bestGuard := res.Best.Value("guard")
	if bestGuard > 1.05*res.Baseline.Value("guard") {
		t.Fatalf("best violates the guard constraint: %v", bestGuard)
	}
}

// TestSpaceKeysAndFormat: a vector renders only its non-default knobs, and
// decodes to the fetch config the search deduplicates on: distinct vectors
// to distinct configs, equal vectors to equal ones.
func TestSpaceKeysAndFormat(t *testing.T) {
	sp := testSpace()
	def := sp.DefaultVector()
	if got := sp.Format(def); got != "{defaults}" {
		t.Fatalf("Format(default) = %q", got)
	}
	v := Vector{0, 3, 0}
	if got := sp.Format(v); got != "{b=3}" {
		t.Fatalf("Format = %q, want {b=3}", got)
	}
	if sp.Config(def) == sp.Config(v) {
		t.Fatalf("distinct vectors share a fetch config")
	}
	if sp.Config(v) != sp.Config(Vector{0, 3, 0}) {
		t.Fatalf("equal vectors decode to different fetch configs")
	}
}
