package tune

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/hostsim"
)

// Constraint bounds one evaluation metric relative to the baseline (the
// default vector's measurement): a candidate is feasible only if
// value <= MaxRel*baseline and value >= MinRel*baseline for every
// constraint whose bound is nonzero. A zero baseline makes the constraint
// vacuous — there is no magnitude to scale by, the same rule cmd/vsocperf
// applies to zero-baseline metrics.
type Constraint struct {
	Metric string
	// MaxRel caps the metric at MaxRel x baseline (e.g. 1.05 = at most 5%
	// above). Zero means no upper bound.
	MaxRel float64
	// MinRel floors the metric at MinRel x baseline (e.g. 0.98 = at most
	// 2% below). Zero means no lower bound.
	MinRel float64
}

// Objective declares what the search optimizes: one metric, minimized or
// maximized according to the metric's own better-direction (BenchMetric
// carries it), subject to the constraints. Infeasible candidates are
// rejected: they record a trace step naming the violated constraint and
// can never become the best vector. The baseline meets every constraint
// with MaxRel >= 1 and MinRel <= 1.
type Objective struct {
	Metric      string
	Constraints []Constraint
}

// bound is a constraint resolved against the baseline metrics.
type bound struct {
	c        Constraint
	min, max float64 // absolute bounds; NaN = unbounded
}

// Step is one trace entry: a candidate, in measurement order, so the
// baseline is step 0. The rendered trace is part of the determinism
// surface: equal inputs produce byte-identical step sequences.
type Step struct {
	Vec      Vector
	Value    float64 // objective metric's raw value
	Feasible bool
	Violated string // first violated constraint's metric (when infeasible)
	Best     bool   // the best candidate so far at this step
}

// Result is one completed search.
type Result struct {
	Preset    string
	Space     Space
	Objective Objective

	Baseline       Metrics
	Best           Metrics
	BestVec        Vector
	BestIsBaseline bool

	Trace    []Step
	Rejected int // infeasible candidates
}

// searcher holds the objective resolved against the baseline.
type searcher struct {
	obj    Objective
	bounds []bound
	dir    float64 // +1 minimize, -1 maximize
}

// Search measures every distinct candidate of the space in one evaluator
// batch and returns the best feasible one. The candidates are the default
// vector (the baseline, which anchors the relative constraints), then every
// other vector in lexicographic level order, the last knob varying fastest,
// skipping each vector whose resolved fetch config an earlier candidate
// already has. The best is the feasible candidate with the best objective
// value; a tie goes to the vector with fewer non-default knobs, then to the
// earlier one, so a knob that does not matter is reported at its default.
// Deterministic for equal (space, evaluator); see the package doc.
func Search(preset string, space Space, ev Evaluator, obj Objective) *Result {
	vecs := candidates(space)
	ms := ev.EvaluateBatch(vecs)
	res := &Result{Preset: preset, Space: space, Objective: obj, Baseline: ms[0]}
	s := &searcher{obj: obj}
	s.bind(ms[0])
	best, bestScore, bestND := -1, 0.0, 0
	for i, v := range vecs {
		score, value, feasible, violated := s.judge(ms[i])
		st := Step{Vec: v, Value: value, Feasible: feasible, Violated: violated}
		if !feasible {
			res.Rejected++
		} else if nd := space.nonDefault(v); best < 0 || score < bestScore || score == bestScore && nd < bestND {
			best, bestScore, bestND = i, score, nd
			st.Best = true
		}
		res.Trace = append(res.Trace, st)
	}
	if best < 0 {
		panic("tune: no feasible candidate, not even the baseline")
	}
	res.BestVec, res.Best, res.BestIsBaseline = vecs[best], ms[best], best == 0
	return res
}

// candidates lists the default vector, then every other vector in
// lexicographic level order (the last knob fastest), skipping each whose
// resolved fetch config an earlier vector already has.
func candidates(space Space) []Vector {
	def := space.DefaultVector()
	seen := map[hostsim.FetchConfig]bool{space.Config(def).Resolved(): true}
	out := []Vector{def}
	v := make(Vector, len(space.Knobs))
	for {
		if c := space.Config(v).Resolved(); !seen[c] {
			seen[c] = true
			out = append(out, slices.Clone(v))
		}
		i := len(v) - 1
		for ; i >= 0; i-- {
			if v[i]++; v[i] < len(space.Knobs[i].Levels) {
				break
			}
			v[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// bind resolves the objective direction and the relative constraints
// against the baseline metrics.
func (s *searcher) bind(base Metrics) {
	bm, ok := base.Lookup(s.obj.Metric)
	if !ok {
		panic(fmt.Sprintf("tune: objective metric %q not in evaluation", s.obj.Metric))
	}
	s.dir = 1
	if bm.Better == "higher" {
		s.dir = -1
	}
	for _, c := range s.obj.Constraints {
		bv := base.Value(c.Metric)
		b := bound{c: c, min: math.NaN(), max: math.NaN()}
		if bv != 0 {
			if c.MaxRel > 0 {
				b.max = c.MaxRel * bv
			}
			if c.MinRel > 0 {
				b.min = c.MinRel * bv
			}
		}
		s.bounds = append(s.bounds, b)
	}
}

// judge scores one candidate's metrics: the signed score (lower is always
// better), the objective metric's raw value, feasibility, and the first
// violated constraint's metric name.
func (s *searcher) judge(m Metrics) (score, value float64, feasible bool, violated string) {
	value = m.Value(s.obj.Metric)
	score = s.dir * value
	for _, b := range s.bounds {
		v := m.Value(b.c.Metric)
		if !math.IsNaN(b.max) && v > b.max {
			return score, value, false, b.c.Metric
		}
		if !math.IsNaN(b.min) && v < b.min {
			return score, value, false, b.c.Metric
		}
	}
	return score, value, true, ""
}

// FormatTrace renders the measured candidates, one line per step. The
// rendering is byte-deterministic and is what the determinism test
// compares.
func (r *Result) FormatTrace() string {
	var b strings.Builder
	for i, st := range r.Trace {
		state := "feasible"
		if !st.Feasible {
			state = "rejected(" + st.Violated + ")"
		}
		fmt.Fprintf(&b, "%3d %s %s=%.6g %s", i,
			r.Space.Format(st.Vec), r.Objective.Metric, st.Value, state)
		if st.Best {
			b.WriteString(" best")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatResult renders the search outcome: the candidate count, the best
// vector knob by knob, and the baseline-vs-best metric table.
func (r *Result) FormatResult() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Auto-tune %s: objective %s, %d candidates (%d rejected)\n",
		r.Preset, r.Objective.Metric, len(r.Trace), r.Rejected)
	if r.BestIsBaseline {
		b.WriteString("  best = shipped defaults (no feasible improvement found)\n")
	}
	b.WriteString("  knob                        default    best\n")
	for i, k := range r.Space.Knobs {
		mark := ""
		if r.BestVec[i] != k.Default {
			mark = "  <-"
		}
		row := fmt.Sprintf("  %-27s %-10s %-7s%s", k.Name,
			k.fmtLevel(k.Levels[k.Default]), k.fmtLevel(k.Levels[r.BestVec[i]]), mark)
		b.WriteString(strings.TrimRight(row, " ") + "\n")
	}
	b.WriteString("  metric                          baseline        best     change\n")
	for _, bm := range r.Best {
		bv := r.Baseline.Value(bm.Name)
		delta := "-"
		if bv != 0 {
			delta = fmt.Sprintf("%+.1f%%", (bm.Value-bv)/math.Abs(bv)*100)
		}
		fmt.Fprintf(&b, "  %-30s %10.6g  %10.6g   %8s\n", bm.Name, bv, bm.Value, delta)
	}
	fmt.Fprintf(&b, "  best vector: %s\n", r.Space.Format(r.BestVec))
	return b.String()
}
