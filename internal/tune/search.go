package tune

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
// can never become the best vector.
type Objective struct {
	Metric      string
	Constraints []Constraint
}

// bound is a constraint resolved against the baseline metrics.
type bound struct {
	c        Constraint
	min, max float64 // absolute bounds; NaN = unbounded
}

// Options parameterizes a search.
type Options struct {
	// Seed drives the random phases (random seeding, restarts). Equal
	// seeds over equal (space, evaluator) reproduce the identical search
	// trajectory byte for byte.
	Seed int64
	// Budget caps the candidates evaluated (cache hits are free), the
	// baseline included. It must be at least 1.
	Budget int
}

const (
	// randomSeeds is how many random vectors join the seeding phase after
	// the axis grid.
	randomSeeds = 6
	// patience is how many consecutive random restarts may fail to improve
	// the global best before the search stops.
	patience = 2
)

// Step is one trace entry: a candidate the search considered, in
// consideration order. The rendered trace is part of the determinism
// surface — equal seeds produce byte-identical step sequences.
type Step struct {
	Index    int    // consideration order, 0-based
	Phase    string // baseline | grid | random | climb | restart
	Vec      Vector
	Cached   bool    // metrics replayed from the cache, not evaluated
	Value    float64 // objective metric's raw value
	Feasible bool
	Violated string // first violated constraint's metric (when infeasible)
	Best     bool   // became the global best at this step
}

// Result is one completed search.
type Result struct {
	Preset    string
	Space     Space
	Objective Objective
	Options   Options

	Baseline       Metrics
	Best           Metrics
	BestVec        Vector
	BestScore      float64
	BestIsBaseline bool

	Trace     []Step
	Evals     int // candidates evaluated, charged against the budget
	CacheHits int // steps replayed from the cache
	Rejected  int // infeasible candidates
}

// searcher is the in-flight search state.
type searcher struct {
	space  Space
	ev     Evaluator
	opts   Options
	obj    Objective
	bounds []bound
	dir    float64 // +1 minimize, -1 maximize
	// cache holds every evaluation by vector key, so revisited cells —
	// hill-climb re-entering a neighborhood — replay their metrics without
	// re-running the simulation.
	cache map[string]Metrics
	rng   *rand.Rand

	res *Result
}

// Search runs the driver: baseline, axis-grid and random seeding, then
// hill-climb with patience-bounded random restarts. Each phase measures
// its candidates in one evaluator batch. Deterministic for equal (space,
// evaluator, options); see the package doc. A budget below 1 is a caller
// bug and panics.
func Search(preset string, space Space, ev Evaluator, obj Objective, opts Options) *Result {
	if opts.Budget < 1 {
		panic(fmt.Sprintf("tune: budget %d, want >= 1", opts.Budget))
	}
	s := &searcher{
		space: space, ev: ev, opts: opts, obj: obj,
		cache: map[string]Metrics{},
		rng:   rand.New(rand.NewSource(opts.Seed)),
		res: &Result{
			Preset: preset, Space: space, Objective: obj, Options: opts,
			BestScore: math.Inf(1),
		},
	}

	// Baseline: the shipped default vector anchors the relative
	// constraints and is the first candidate. It is feasible by
	// construction (every relative bound scales its own value).
	def := space.DefaultVector()
	var b batch
	s.add(&b, def)
	base := s.measure(&b)[0]
	s.res.Baseline = base
	s.bind(base)
	s.record("baseline", def, base, false)

	// Axis grid: each knob swept level by level around the default, most
	// impactful knob first (space order), so a truncated budget still
	// probes the leading dimensions.
	var grid batch
	for ki := range space.Knobs {
		for li := range space.Knobs[ki].Levels {
			if li == space.Knobs[ki].Default || !s.room(&grid) {
				continue
			}
			v := def.clone()
			v[ki] = li
			s.add(&grid, v)
		}
	}
	s.run("grid", &grid)

	// Random seeding: uniform vectors from the seeded rng.
	var random batch
	for i := 0; i < randomSeeds && s.room(&random); i++ {
		s.add(&random, s.randomVec())
	}
	s.run("random", &random)

	// Hill-climb with patience: from the best-known vector, move to the
	// best strictly-improving neighbor until a local optimum, then restart
	// from a random vector; stop after patience consecutive restarts that
	// never improved the global best.
	cur := s.res.BestVec.clone()
	restartsLeft := patience
	for !s.exhausted() {
		prevBest := s.res.BestScore
		next, ok := s.climbStep(cur)
		if ok {
			cur = next
			if s.res.BestScore < prevBest {
				restartsLeft = patience
			}
			continue
		}
		if restartsLeft == 0 {
			break
		}
		restartsLeft--
		cur = s.randomVec()
		var restart batch
		s.add(&restart, cur)
		if s.run("restart", &restart) {
			restartsLeft = patience
		}
	}
	return s.res
}

// exhausted reports whether the evaluation budget is spent.
func (s *searcher) exhausted() bool { return s.res.Evals >= s.opts.Budget }

// randomVec draws a uniform vector from the seeded rng.
func (s *searcher) randomVec() Vector {
	v := make(Vector, len(s.space.Knobs))
	for i, k := range s.space.Knobs {
		v[i] = s.rng.Intn(len(k.Levels))
	}
	return v
}

// batch is one phase's candidates, gathered for a single evaluator call.
type batch struct {
	vecs   []Vector
	cached []bool // per member: replayed from the cache or an earlier member
	misses []Vector
	keys   map[string]bool // the misses' cache keys
}

// room reports whether the budget can take one more evaluation beyond the
// ones b already holds.
func (s *searcher) room(b *batch) bool { return s.res.Evals+len(b.misses) < s.opts.Budget }

// add takes v into b when it is free (cached, or a repeat of a member) or
// the budget has room to evaluate it; otherwise v is dropped.
func (s *searcher) add(b *batch, v Vector) {
	key := s.space.Key(v)
	_, cached := s.cache[key]
	cached = cached || b.keys[key]
	if !cached {
		if !s.room(b) {
			return
		}
		if b.keys == nil {
			b.keys = map[string]bool{}
		}
		b.keys[key] = true
		b.misses = append(b.misses, v)
	}
	b.vecs = append(b.vecs, v)
	b.cached = append(b.cached, cached)
}

// measure evaluates b's misses in one evaluator call, charging each against
// the budget, and returns every member's metrics in order.
func (s *searcher) measure(b *batch) []Metrics {
	if len(b.misses) > 0 {
		for i, m := range s.ev.EvaluateBatch(b.misses) {
			s.cache[s.space.Key(b.misses[i])] = m
		}
		s.res.Evals += len(b.misses)
	}
	ms := make([]Metrics, len(b.vecs))
	for i, v := range b.vecs {
		ms[i] = s.cache[s.space.Key(v)]
	}
	return ms
}

// run measures b and records its members' steps in order. Returns whether
// one became the global best.
func (s *searcher) run(phase string, b *batch) bool {
	best := false
	for i, m := range s.measure(b) {
		best = s.record(phase, b.vecs[i], m, b.cached[i]) || best
	}
	return best
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
	s.bounds = s.bounds[:0]
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

// record appends one trace step and promotes the candidate to global best
// when feasible and strictly better. Returns whether it became the best.
func (s *searcher) record(phase string, v Vector, m Metrics, cached bool) bool {
	score, value, feasible, violated := s.judge(m)
	st := Step{
		Index: len(s.res.Trace), Phase: phase, Vec: v.clone(),
		Cached: cached, Value: value,
		Feasible: feasible, Violated: violated,
	}
	if feasible && score < s.res.BestScore {
		s.res.BestScore = score
		s.res.BestVec = v.clone()
		s.res.Best = m
		s.res.BestIsBaseline = phase == "baseline"
		st.Best = true
	}
	if !feasible {
		s.res.Rejected++
	}
	if cached {
		s.res.CacheHits++
	}
	s.res.Trace = append(s.res.Trace, st)
	return st.Best
}

// climbStep measures cur's neighborhood (each knob one level up and down,
// in knob order) in one batch and returns the best neighbor strictly
// improving on cur. Cached neighbors replay even once the budget is spent.
func (s *searcher) climbStep(cur Vector) (Vector, bool) {
	curScore := math.Inf(1)
	if m, ok := s.cache[s.space.Key(cur)]; ok {
		if sc, _, feasible, _ := s.judge(m); feasible {
			curScore = sc
		}
	}
	var nb batch
	for ki := range s.space.Knobs {
		for _, d := range []int{-1, 1} {
			li := cur[ki] + d
			if li < 0 || li >= len(s.space.Knobs[ki].Levels) {
				continue
			}
			v := cur.clone()
			v[ki] = li
			s.add(&nb, v)
		}
	}
	bestScore := curScore
	var bestVec Vector
	for i, m := range s.measure(&nb) {
		v := nb.vecs[i]
		s.record("climb", v, m, nb.cached[i])
		if sc, _, feasible, _ := s.judge(m); feasible && sc < bestScore {
			bestScore = sc
			bestVec = v
		}
	}
	return bestVec, bestVec != nil
}

// FormatTrace renders the search trajectory, one line per step. The
// rendering is byte-deterministic for equal seeds and is what the
// determinism test compares.
func (r *Result) FormatTrace() string {
	var b strings.Builder
	for _, st := range r.Trace {
		state := "feasible"
		if !st.Feasible {
			state = "rejected(" + st.Violated + ")"
		}
		fmt.Fprintf(&b, "%3d %-8s %s %s=%.6g %s", st.Index, st.Phase,
			r.Space.Format(st.Vec), r.Objective.Metric, st.Value, state)
		if st.Cached {
			b.WriteString(" cached")
		}
		if st.Best {
			b.WriteString(" best")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatResult renders the search outcome: the best vector knob by knob,
// the baseline-vs-best metric table, and the search accounting.
func (r *Result) FormatResult() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Auto-tune %s: objective %s, %d evals (%d cached, %d rejected), budget %d\n",
		r.Preset, r.Objective.Metric, r.Evals, r.CacheHits, r.Rejected, r.Options.Budget)
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
	fmt.Fprintf(&b, "  best vector: %s (hash %016x)\n", r.Space.Format(r.BestVec), r.Space.Hash(r.BestVec))
	return b.String()
}
