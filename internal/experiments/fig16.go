package experiments

import (
	"fmt"

	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/svm"
	"repro/internal/workload"
)

// Fig16Result is the write-invalidate access-latency CDF of §5.4 together
// with the walked critical-path attribution of where that latency comes
// from: the demand-fetch breakdown.
type Fig16Result struct {
	// CDF of begin_access blocking latency (ms).
	CDF                  []metrics.CDFPoint
	MeanMS, P99MS, MaxMS float64
	// Report is the sessions' merged critical-path attribution.
	Report *prof.Report
}

// fig16Preset is the Fig. 16 emulator: vSoC with write-invalidate in place
// of the prefetch engine, chunked demand fetches on when cfg.Fetch is set.
func fig16Preset(cfg Config) emulator.Preset {
	preset := emulator.VSoCNoPrefetch()
	if cfg.Fetch {
		preset.Fetch = hostsim.EnabledFetch()
	}
	return preset
}

// RunFig16 reproduces Fig. 16 on preset: access latency on the high-end
// machine, on the video apps whose render threads the coherence blocks.
// Every session carries a critical-path profiler, which only observes, so
// the CDF is the one a profiler-off run measures (TestProfilerDeterminism).
// The registry's fig16 entry runs it on fig16Preset, the tuner on each
// candidate fetch config. Sessions fan out over Config.Workers and their
// reports merge in cell order, so the result is independent of the worker
// count.
func RunFig16(cfg Config, preset emulator.Preset) *Fig16Result {
	cells := appCells(cfg, preset, HighEnd, 500, videoCats)
	for i := range cells {
		cells[i].profile = true
	}
	type run struct {
		st  *svm.Stats
		rep *prof.Report
	}
	runs := sweep(cfg, cells, func(s *workload.Session, _ *workload.Result) run {
		return run{st: s.SVMStats(), rep: s.Env.Profiler().Report()}
	})
	var all metrics.Distribution
	res := &Fig16Result{Report: prof.New().Report()}
	for i, r := range runs {
		if r.st == nil {
			continue
		}
		all.Merge(&r.st.AccessLatency)
		r.rep.Retag(fmt.Sprintf("%s/%d", emulator.CategoryNames[cells[i].cat], cells[i].app))
		res.Report.Merge(r.rep)
	}
	res.CDF, res.MeanMS, res.P99MS, res.MaxMS = all.CDF(40), all.Mean(), all.Percentile(99), all.Max()
	return res
}

// runFig16Entry is the fig16 entry's Run: the report and its bench metrics,
// plus the folded-stack export when cfg.ProfilePath is set.
func runFig16Entry(cfg Config) (string, []BenchMetric, error) {
	r := RunFig16(cfg, fig16Preset(cfg))
	text := FormatFig16(r)
	if cfg.ProfilePath != "" {
		if err := writeFile(cfg.ProfilePath, r.Report.WriteFolded); err != nil {
			return text, nil, err
		}
		text += fmt.Sprintf("[folded-stack profile written to %s]\n", cfg.ProfilePath)
	}
	return text, Fig16Metrics(r), nil
}
