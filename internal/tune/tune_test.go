package tune

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/svm"
)

// testSpace is a synthetic 3-knob space (5 levels each, defaults at level
// 0) for exercising the search driver without simulations.
func testSpace() Space {
	mk := func(name string) Knob {
		return Knob{
			Name:    name,
			Levels:  []float64{0, 1, 2, 3, 4},
			Default: 0,
			Set:     func(*experiments.Tunable, float64) {},
		}
	}
	return Space{Knobs: []Knob{mk("a"), mk("b"), mk("c")}}
}

// quadEval plants a separable quadratic objective with its optimum at
// target, plus a "guard" constraint metric that jumps in the penalized
// region. Metrics are returned sorted by name (guard < obj), matching the
// normalization contract of the real evaluator.
type quadEval struct {
	target   []int
	calls    int // candidates evaluated
	batches  int // EvaluateBatch calls
	penalize func(v Vector) bool
}

func (e *quadEval) EvaluateBatch(vs []Vector) []Metrics {
	e.batches++
	e.calls += len(vs)
	out := make([]Metrics, len(vs))
	for i, v := range vs {
		score := 0.0
		for i, t := range e.target {
			d := float64(v[i] - t)
			score += d * d
		}
		guard := 1.0
		if e.penalize != nil && e.penalize(v) {
			guard = 10
		}
		out[i] = Metrics{
			{Name: "guard", Value: guard, Unit: "x", Better: "lower"},
			{Name: "obj", Value: score, Unit: "x", Better: "lower"},
		}
	}
	return out
}

func testObjective() Objective {
	return Objective{
		Metric:      "obj",
		Constraints: []Constraint{{Metric: "guard", MaxRel: 1.05}},
	}
}

func TestSearchDeterministic(t *testing.T) {
	run := func() *Result {
		ev := &quadEval{target: []int{3, 1, 2}}
		return Search("test", testSpace(), ev, testObjective(), Options{Seed: 7, Budget: 60})
	}
	a, b := run(), run()
	if at, bt := a.FormatTrace(), b.FormatTrace(); at != bt {
		t.Fatalf("equal seeds produced different traces:\n--- a\n%s--- b\n%s", at, bt)
	}
	if !reflect.DeepEqual(a.BestVec, b.BestVec) {
		t.Fatalf("equal seeds produced different best vectors: %v vs %v", a.BestVec, b.BestVec)
	}
	if a.FormatResult() != b.FormatResult() {
		t.Fatalf("equal seeds produced different result renderings")
	}
}

func TestHillClimbConverges(t *testing.T) {
	ev := &quadEval{target: []int{3, 1, 2}}
	res := Search("test", testSpace(), ev, testObjective(), Options{Seed: 1, Budget: 120})
	if want := (Vector{3, 1, 2}); !reflect.DeepEqual(res.BestVec, want) {
		t.Fatalf("best vector = %v, want planted optimum %v\ntrace:\n%s", res.BestVec, want, res.FormatTrace())
	}
	if res.BestScore != 0 {
		t.Fatalf("best score = %v, want 0", res.BestScore)
	}
	if res.BestIsBaseline {
		t.Fatalf("best should not be the baseline")
	}
}

// TestCacheHitsReplayWithoutRerun: within one search, revisited cells
// replay from the cache. The evaluator measures exactly the charged
// candidates, in fewer calls than candidates (a phase is one batch), and
// every other trace step is a cache hit.
func TestCacheHitsReplayWithoutRerun(t *testing.T) {
	ev := &quadEval{target: []int{3, 1, 2}}
	res := Search("test", testSpace(), ev, testObjective(), Options{Seed: 7, Budget: 60})
	if ev.calls != res.Evals {
		t.Fatalf("evaluator measured %d candidates but search charged %d evals", ev.calls, res.Evals)
	}
	if res.CacheHits == 0 {
		t.Fatalf("expected cache hits within the search (hill-climb revisits)")
	}
	if len(res.Trace) != res.Evals+res.CacheHits {
		t.Fatalf("%d trace steps, want %d evals + %d cache hits", len(res.Trace), res.Evals, res.CacheHits)
	}
	if ev.batches >= ev.calls {
		t.Fatalf("%d evaluator calls for %d candidates: phases are not batched", ev.batches, ev.calls)
	}
}

func TestConstraintViolationsRejected(t *testing.T) {
	// The entire improving half-space around the optimum violates the
	// guard, leaving only mild improvements feasible.
	ev := &quadEval{
		target:   []int{3, 1, 2},
		penalize: func(v Vector) bool { return v[0] >= 2 },
	}
	res := Search("test", testSpace(), ev, testObjective(), Options{Seed: 3, Budget: 120})
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

func TestBudgetBoundsEvaluatorCalls(t *testing.T) {
	ev := &quadEval{target: []int{3, 1, 2}}
	res := Search("test", testSpace(), ev, testObjective(), Options{Seed: 5, Budget: 9})
	if ev.calls > 9 {
		t.Fatalf("budget 9 but evaluator ran %d times", ev.calls)
	}
	if res.Evals != ev.calls {
		t.Fatalf("accounting drift: %d evals recorded, %d calls made", res.Evals, ev.calls)
	}
	if res.BestVec == nil {
		t.Fatalf("even a tiny budget must keep the baseline as best")
	}
}

// TestBudgetBelowOneRejected: a search cannot run without evaluating its
// baseline, so a budget below one is refused, not replaced by a default.
func TestBudgetBelowOneRejected(t *testing.T) {
	for _, budget := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Search ran with budget %d", budget)
				}
			}()
			Search("test", testSpace(), &quadEval{target: []int{3, 1, 2}}, testObjective(), Options{Seed: 1, Budget: budget})
		}()
	}
}

func TestSpaceKeysAndFormat(t *testing.T) {
	sp := testSpace()
	def := sp.DefaultVector()
	if got := sp.Format(def); got != "{defaults}" {
		t.Fatalf("Format(default) = %q", got)
	}
	v := def.clone()
	v[1] = 3
	if got := sp.Format(v); got != "{b=3}" {
		t.Fatalf("Format = %q, want {b=3}", got)
	}
	if sp.Key(def) == sp.Key(v) {
		t.Fatalf("distinct vectors share a key")
	}
	if sp.Hash(def) == sp.Hash(v) {
		t.Fatalf("distinct vectors share a hash")
	}
	if sp.Key(v) != sp.Key(v.clone()) {
		t.Fatalf("equal vectors produce different keys")
	}
}

func TestSpaceForCoversAllKnobs(t *testing.T) {
	names := func(s Space) map[string]bool {
		m := map[string]bool{}
		for _, k := range s.Knobs {
			m[k.Name] = true
		}
		return m
	}
	pre := names(SpaceFor(svm.KindPrefetch))
	wi := names(SpaceFor(svm.KindWriteInvalidate))
	for _, k := range AllKnobs() {
		if !pre[k.Name] {
			t.Errorf("prefetch space misses knob %s", k.Name)
		}
	}
	for _, k := range fetchKnobs() {
		if !wi[k.Name] {
			t.Errorf("write-invalidate space misses fetch knob %s", k.Name)
		}
	}
	for _, k := range AllKnobs() {
		if k.Default < 0 || k.Default >= len(k.Levels) {
			t.Errorf("knob %s default index %d out of range", k.Name, k.Default)
		}
		if k.Set == nil {
			t.Errorf("knob %s has no setter", k.Name)
		}
	}
}
