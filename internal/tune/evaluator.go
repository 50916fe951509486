package tune

import (
	"repro/internal/emulator"
	"repro/internal/experiments"
)

// ExpEvaluator measures candidates with the real simulation: each vector
// decodes onto the preset's shipped tunable and runs the Fig. 16 video
// probe through experiments.RunTuneEval. A batch fans the candidates out
// over the experiments worker pool with each candidate's inner run forced
// serial: the pool overlaps whole candidates instead of sessions, and every
// measurement stays byte-identical to a lone run at any worker count.
type ExpEvaluator struct {
	Cfg    experiments.Config
	Preset emulator.Preset
	Space  Space
	Base   experiments.Tunable
}

// NewExpEvaluator builds the evaluator for a preset, baselined at the
// preset's shipped tunable.
func NewExpEvaluator(cfg experiments.Config, p emulator.Preset) *ExpEvaluator {
	return &ExpEvaluator{Cfg: cfg, Preset: p, Space: SpaceFor(p.SVM.Kind), Base: experiments.TunableOf(p)}
}

// EvaluateBatch measures the candidates concurrently, on the configured
// worker budget.
func (e *ExpEvaluator) EvaluateBatch(vs []Vector) []Metrics {
	inner := e.Cfg
	inner.Workers = 1
	out := experiments.ParMap(e.Cfg.EffectiveWorkers(), len(vs), func(i int) Metrics {
		return Metrics(experiments.RunTuneEval(inner, e.Preset, e.Space.Tunable(e.Base, vs[i])))
	})
	return out
}

// DefaultObjective returns the shipped search objective, the same for
// every preset: minimize the critical-path demand-fetch mean — the cost a
// cold read pays on write-invalidate presets and a prefetch miss pays on
// prefetch presets — subject to holding frame rate, the notification
// budget, and tail access latency.
//
// Every constraint is relative to the shipped default with the same 5%
// families cmd/vsocperf gates on, so a feasible best vector also passes the
// before/after evidence diff.
func DefaultObjective() Objective {
	return Objective{
		Metric: experiments.TuneDemandFetchMean,
		Constraints: []Constraint{
			{Metric: experiments.TuneFPS, MinRel: 0.98},
			{Metric: experiments.TuneNotifPerOp, MaxRel: 1.05},
			{Metric: experiments.TuneAccessP99, MaxRel: 1.10},
		},
	}
}

// Run searches one preset end to end with the shipped objective: space from
// the preset's protocol kind, evaluator over cfg, default objective.
func Run(cfg experiments.Config, p emulator.Preset, opts Options) *Result {
	ev := NewExpEvaluator(cfg, p)
	return Search(p.Name, ev.Space, ev, DefaultObjective(), opts)
}

// BenchReports packages a search's baseline and best measurements as bench
// reports, the before/after evidence pair cmd/vsocperf diffs: the "after"
// improving the objective while no gated metric regresses past threshold is
// exactly the search's feasibility predicate.
func (r *Result) BenchReports() (before, after *experiments.Report) {
	before = experiments.NewBenchReport(map[string][]experiments.BenchMetric{"tune": r.Baseline})
	after = experiments.NewBenchReport(map[string][]experiments.BenchMetric{"tune": r.Best})
	return before, after
}
