package experiments

import (
	"fmt"
	"strings"

	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/svm"
	"repro/internal/workload"
)

// MicroResult is the Fig. 16 run rerun with the critical-path profiler
// attached: the same access-latency CDF (the profiler is a pure observer,
// so the numbers are identical to RunFig16's) plus the walked attribution
// of where that latency comes from — the §5.4 demand-fetch breakdown.
type MicroResult struct {
	Fig16 *Fig16Result
	// Report is the merged attribution; nil when the profiler was off.
	Report *prof.Report
	// Fetch-path counters summed across sessions (the fetchpipe sweep
	// reports them; zero when chunking is off).
	DemandFetches  int
	ChunkedFetches int
	FetchJoins     int
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

// RunMicro reruns the Fig. 16 workload (write-invalidate video on the
// high-end machine) with a per-session critical-path profiler. Sessions
// use the same seeds as RunFig16, so its stats are byte-identical to a
// profiler-off run; per-session reports merge in fixed cell order, so the
// result is independent of worker count.
func RunMicro(cfg Config) *MicroResult {
	return runMicroPreset(cfg, fig16Preset(cfg), true)
}

// runMicroPreset runs the Fig. 16 jobs on preset, with or without the
// profiler: RunFig16 and RunMicro share it, the batching sweep reruns it as
// its latency guardrail, and the fetchpipe sweep across chunked-fetch
// settings.
func runMicroPreset(cfg Config, preset emulator.Preset, profile bool) *MicroResult {
	cells := appCells(cfg, preset, HighEnd, 500, videoCats)
	for i := range cells {
		cells[i].profile = profile
	}
	type run struct {
		st  *svm.Stats
		rep *prof.Report
	}
	runs := sweep(cfg, cells, func(s *workload.Session, _ *workload.Result) run {
		r := run{st: s.SVMStats()}
		if pf := s.Env.Profiler(); pf != nil {
			r.rep = pf.Report()
		}
		return r
	})
	var all metrics.Distribution
	res := &MicroResult{}
	if profile {
		res.Report = prof.New().Report()
	}
	for i, r := range runs {
		if r.st == nil {
			continue
		}
		all.Merge(&r.st.AccessLatency)
		res.DemandFetches += r.st.DemandFetches
		res.ChunkedFetches += r.st.ChunkedFetches
		res.FetchJoins += r.st.FetchJoins
		if r.rep != nil {
			r.rep.Retag(fmt.Sprintf("%s/%d", emulator.CategoryNames[cells[i].cat], cells[i].app))
			res.Report.Merge(r.rep)
		}
	}
	res.Fig16 = &Fig16Result{
		CDF:    all.CDF(40),
		MeanMS: all.Mean(),
		P99MS:  all.Percentile(99),
		MaxMS:  all.Max(),
	}
	return res
}

// FormatMicro renders the micro run: the Fig. 16 summary line plus the
// full attribution block (component table, demand-fetch class table, and
// top-K slowest frames) that accompanies the metrics dump.
func FormatMicro(r *MicroResult) string {
	var b strings.Builder
	b.WriteString("Critical-path micro run (Fig. 16 workload, profiler on):\n")
	fmt.Fprintf(&b, "  access latency: mean %.2f ms, p99 %.2f ms, max %.2f ms\n",
		r.Fig16.MeanMS, r.Fig16.P99MS, r.Fig16.MaxMS)
	cov, dom := r.Report.ClassCoverage("demand-fetch")
	fmt.Fprintf(&b, "  demand-fetch attribution: %.1f%% of latency named, dominant component %s\n",
		100*cov, dom)
	b.WriteString(r.Report.FormatAttribution())
	return b.String()
}

// runMicroEntry is the micro entry's Run: the report and its bench metrics,
// plus the folded-stack export when cfg.ProfilePath is set.
func runMicroEntry(cfg Config) (string, []BenchMetric, error) {
	r := RunMicro(cfg)
	text := FormatMicro(r)
	if cfg.ProfilePath != "" {
		if err := writeFile(cfg.ProfilePath, r.Report.WriteFolded); err != nil {
			return text, nil, err
		}
		text += fmt.Sprintf("[folded-stack profile written to %s]\n", cfg.ProfilePath)
	}
	return text, microMetrics(r), nil
}

// microMetrics projects the micro run onto the bench trajectory.
func microMetrics(r *MicroResult) []BenchMetric {
	cov, _ := r.Report.ClassCoverage("demand-fetch")
	ms := make([]BenchMetric, 0, 8)
	ms = append(ms,
		BenchMetric{Name: "micro.access_latency_mean_ms", Value: r.Fig16.MeanMS, Unit: "ms", Better: "lower"},
		BenchMetric{Name: "micro.access_latency_p99_ms", Value: r.Fig16.P99MS, Unit: "ms", Better: "lower"},
		BenchMetric{Name: "micro.demand_fetch_coverage", Value: cov, Unit: "frac", Better: "higher"},
		BenchMetric{Name: "micro.frames", Value: float64(r.Report.Frames), Unit: "count", Better: "higher"},
	)
	if r.Report.Frames > 0 {
		meanMS := float64(r.Report.Total.Milliseconds()) / float64(r.Report.Frames)
		ms = append(ms, BenchMetric{Name: "micro.frame_critical_path_mean_ms", Value: meanMS, Unit: "ms", Better: "lower"})
	}
	if cs := r.Report.Classes["demand-fetch"]; cs != nil && cs.Count > 0 {
		meanMS := float64(cs.Total.Microseconds()) / 1000 / float64(cs.Count)
		ms = append(ms, BenchMetric{Name: "micro.demand_fetch_mean_ms", Value: meanMS, Unit: "ms", Better: "lower"})
	}
	return ms
}
