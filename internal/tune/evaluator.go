package tune

import (
	"repro/internal/emulator"
	"repro/internal/experiments"
)

// ExpEvaluator measures candidates with the real simulation: each vector
// decodes to a fetch config and runs the Fig. 16 video probe on the preset
// through experiments.RunTuneEval. A batch fans the candidates out over the
// experiments worker pool with each candidate's inner run forced serial:
// the pool overlaps whole candidates instead of sessions, and every
// measurement stays byte-identical to a lone run at any worker count.
type ExpEvaluator struct {
	Cfg    experiments.Config
	Preset emulator.Preset
	Space  Space
}

// EvaluateBatch measures the candidates concurrently, on the configured
// worker budget.
func (e *ExpEvaluator) EvaluateBatch(vs []Vector) []Metrics {
	inner := e.Cfg
	inner.Workers = 1
	return experiments.ParMap(e.Cfg.EffectiveWorkers(), len(vs), func(i int) Metrics {
		return Metrics(experiments.RunTuneEval(inner, e.Preset, e.Space.Config(vs[i])))
	})
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

// Run searches one preset end to end: the fetch space, measured on the
// preset over cfg, under the shipped objective.
func Run(cfg experiments.Config, p emulator.Preset) *Result {
	sp := FetchSpace()
	return Search(p.Name, sp, &ExpEvaluator{Cfg: cfg, Preset: p, Space: sp}, DefaultObjective())
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
