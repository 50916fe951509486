package experiments

import (
	"fmt"
	"strings"

	"repro/internal/emulator"
	"repro/internal/metrics"
)

// FormatTable1 renders the workload taxonomy.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: the five types of emerging apps\n")
	fmt.Fprintf(&b, "%-12s %-28s %5s  %s\n", "Type", "Devices Involved", "Count", "Duration")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-28s %5d  %s\n", r.Type, strings.Join(r.Devices, ", "), r.Count, r.Duration)
	}
	return b.String()
}

// FormatTable2 renders the SVM microbenchmark.
func FormatTable2(t *Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: SVM performance (high-end desktop / middle-end laptop)\n")
	fmt.Fprintf(&b, "%-16s %-10s %-10s %-10s\n", "Metric", "vSoC", "GAE", "QEMU-KVM")
	cell := func(metric func(*SVMPerf) string, emu string) string {
		hi := t.Of(emu, HighEnd.Name)
		lo := t.Of(emu, MidEnd.Name)
		if hi == nil || lo == nil {
			return "-"
		}
		return metric(hi) + " / " + metric(lo)
	}
	lat := func(r *SVMPerf) string { return fmt.Sprintf("%.2fms", r.AccessLatencyMS) }
	coh := func(r *SVMPerf) string { return fmt.Sprintf("%.2fms", r.CoherenceCostMS) }
	thr := func(r *SVMPerf) string { return fmt.Sprintf("%.2fGB/s", r.ThroughputGBs) }
	fmt.Fprintf(&b, "%-16s %-22s %-22s %-22s\n", "Access Latency",
		cell(lat, "vSoC"), cell(lat, "GAE"), cell(lat, "QEMU-KVM"))
	fmt.Fprintf(&b, "%-16s %-22s %-22s %-22s\n", "Coherence Cost",
		cell(coh, "vSoC"), cell(coh, "GAE"), cell(coh, "QEMU-KVM"))
	fmt.Fprintf(&b, "%-16s %-22s %-22s %-22s\n", "Throughput",
		cell(thr, "vSoC"), cell(thr, "GAE"), cell(thr, "QEMU-KVM"))
	if v := t.Of("vSoC", HighEnd.Name); v != nil {
		fmt.Fprintf(&b, "(vSoC host-direct coherence share: %.0f%%)\n", v.DirectShare*100)
	}
	return b.String()
}

// FormatEmerging renders Figs. 10/13 or 11/14.
func FormatEmerging(r *EmergingResult, figFPS, figLat string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: FPS of emerging apps on the %s\n", figFPS, r.Machine)
	fmt.Fprintf(&b, "%-12s", "Emulator")
	for c := 0; c < emulator.NumCategories; c++ {
		fmt.Fprintf(&b, " %10s", emulator.CategoryNames[c])
	}
	fmt.Fprintf(&b, " %8s\n", "mean")
	for _, p := range emulator.All() {
		fmt.Fprintf(&b, "%-12s", p.Name)
		for c := 0; c < emulator.NumCategories; c++ {
			cell := r.Cell(p.Name, c)
			if cell == nil || cell.Apps == 0 {
				fmt.Fprintf(&b, " %10s", "n/a")
			} else {
				fmt.Fprintf(&b, " %10.1f", cell.MeanFPS)
			}
		}
		fmt.Fprintf(&b, " %8.1f\n", r.MeanFPSOf(p.Name))
	}
	fmt.Fprintf(&b, "\nFigure %s: motion-to-photon latency (ms) on the %s\n", figLat, r.Machine)
	fmt.Fprintf(&b, "%-12s", "Emulator")
	for _, c := range []int{emulator.CatCamera, emulator.CatAR, emulator.CatLivestream} {
		fmt.Fprintf(&b, " %10s", emulator.CategoryNames[c])
	}
	fmt.Fprintf(&b, " %8s\n", "mean")
	for _, p := range emulator.All() {
		fmt.Fprintf(&b, "%-12s", p.Name)
		for _, c := range []int{emulator.CatCamera, emulator.CatAR, emulator.CatLivestream} {
			cell := r.Cell(p.Name, c)
			if cell == nil || cell.Apps == 0 || cell.MeanLatencyMS == 0 {
				fmt.Fprintf(&b, " %10s", "n/a")
			} else {
				fmt.Fprintf(&b, " %10.1f", cell.MeanLatencyMS)
			}
		}
		if m := r.MeanLatencyOf(p.Name); m > 0 {
			fmt.Fprintf(&b, " %8.1f\n", m)
		} else {
			fmt.Fprintf(&b, " %8s\n", "n/a")
		}
	}
	return b.String()
}

// FormatAblation renders Fig. 12.
func FormatAblation(r *AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: FPS breakdown on the high-end desktop\n")
	fmt.Fprintf(&b, "%-16s", "Variant")
	for _, c := range r.Categories {
		fmt.Fprintf(&b, " %10s", c)
	}
	b.WriteByte('\n')
	row := func(name string, vals []float64) {
		fmt.Fprintf(&b, "%-16s", name)
		for _, v := range vals {
			fmt.Fprintf(&b, " %10.1f", v)
		}
		b.WriteByte('\n')
	}
	row("vSoC", r.Full)
	row("no prefetch", r.NoPrefetch)
	row("no fence", r.NoFence)
	fmt.Fprintf(&b, "avg drop: no-prefetch %.0f%% (video %.0f%%), no-fence %.0f%%\n",
		r.AvgDropNoPrefetch()*100, r.VideoDropNoPrefetch()*100, r.AvgDropNoFence()*100)
	return b.String()
}

// FormatPopular renders Fig. 15.
func FormatPopular(r *PopularResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: FPS of top popular apps on the %s\n", r.Machine)
	fmt.Fprintf(&b, "%-12s %8s %6s\n", "Emulator", "meanFPS", "apps")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-12s %8.1f %6d\n", c.Emulator, c.MeanFPS, c.Apps)
	}
	if v := r.Of("vSoC"); v != nil {
		for _, c := range r.Cells {
			if c.Emulator != "vSoC" && c.MeanFPS > 0 {
				fmt.Fprintf(&b, "vSoC vs %-12s %+5.0f%%\n", c.Emulator, (v.MeanFPS/c.MeanFPS-1)*100)
			}
		}
	}
	return b.String()
}

// FormatPopularAblation renders the §5.5 breakdown.
func FormatPopularAblation(r *PopularAblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Popular-app ablation (%d apps)\n", r.Apps)
	fmt.Fprintf(&b, "vSoC %.1f FPS | no-prefetch %.1f (-%.0f%%, %d/%d apps drop) | no-fence %.1f (-%.0f%%, %d/%d apps drop)\n",
		r.FullMean,
		r.NoPrefetchMean, pct(r.FullMean, r.NoPrefetchMean), r.AppsDropNoPrefetch, r.Apps,
		r.NoFenceMean, pct(r.FullMean, r.NoFenceMean), r.AppsDropNoFence, r.Apps)
	return b.String()
}

func pct(full, v float64) float64 {
	if full <= 0 {
		return 0
	}
	return (full - v) / full * 100
}

// FormatPrediction renders the §5.2 prediction report.
func FormatPrediction(r *PredictionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prediction accuracy (§5.2)\n")
	for c := 0; c < emulator.NumCategories; c++ {
		name := emulator.CategoryNames[c]
		if acc, ok := r.DeviceAccuracy[name]; ok {
			fmt.Fprintf(&b, "%-12s device prediction %.1f%%\n", name, acc*100)
		}
	}
	fmt.Fprintf(&b, "slack std err %.2f ms | prefetch-time std err %.2f ms | suspensions %d\n",
		r.SlackStdErrMS, r.PrefetchStdErrMS, r.Suspensions)
	return b.String()
}

// FormatOverhead renders the §5.2 overhead report.
func FormatOverhead(r *OverheadResult) string {
	s := fmt.Sprintf("Framework overhead (§5.2)\nmemory %.3f MiB (budget 3.1) | CPU %.3f%% (budget 1%%) | fence table peak %d/%d slots\n",
		float64(r.MemoryBytes)/(1<<20), r.CPUFraction*100, r.FenceTablePeak, r.FenceCapacity)
	if r.TraceFile != "" {
		s += "trace " + r.TraceFile + "\n"
	}
	if r.MetricsDump != "" {
		s += "\n== metrics ==\n" + r.MetricsDump
	}
	return s
}

// FormatFig16 renders the write-invalidate latency CDF, then its
// critical-path attribution: the demand-fetch coverage and dominant
// component, the component and class tables, and the top-K slowest frames.
func FormatFig16(r *Fig16Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 16: access latency with prefetch disabled (write-invalidate)\n")
	fmt.Fprintf(&b, "mean %.2f ms | p99 %.2f ms | max %.2f ms\n", r.MeanMS, r.P99MS, r.MaxMS)
	b.WriteString(formatCDF(r.CDF, "ms"))
	b.WriteString("\nCritical-path micro run (Fig. 16 workload, profiler on):\n")
	fmt.Fprintf(&b, "  access latency: mean %.2f ms, p99 %.2f ms, max %.2f ms\n",
		r.MeanMS, r.P99MS, r.MaxMS)
	cov, dom := r.Report.ClassCoverage("demand-fetch")
	fmt.Fprintf(&b, "  demand-fetch attribution: %.1f%% of latency named, dominant component %s\n",
		100*cov, dom)
	b.WriteString(r.Report.FormatAttribution())
	return b.String()
}

// FormatStudy renders the §2.3 measurement study: Table 1, the Figs. 4-6
// summaries, then each figure's per-platform CDFs.
func FormatStudy(s *StudyResult) string {
	var b strings.Builder
	b.WriteString(FormatTable1(s.Table1))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "Figure 4: shared memory region sizes (MiB)\n")
	for _, t := range s.Traces {
		fmt.Fprintf(&b, "%-10s n=%d p50=%.1f p90=%.1f max=%.1f | >1MiB: %.0f%%\n",
			t.Platform, t.RegionSizes.Count(), t.RegionSizes.Percentile(50),
			t.RegionSizes.Percentile(90), t.RegionSizes.Max(),
			t.RegionSizes.FractionAbove(1)*100)
	}
	fmt.Fprintf(&b, "\nFigure 5: coherence maintenance cost (ms, emulators)\n")
	for _, t := range s.Traces {
		if t.CoherenceCost.Count() == 0 {
			fmt.Fprintf(&b, "%-10s (unified memory: no coherence copies)\n", t.Platform)
			continue
		}
		fmt.Fprintf(&b, "%-10s n=%d mean=%.2f p50=%.2f p99=%.2f\n",
			t.Platform, t.CoherenceCost.Count(), t.CoherenceCost.Mean(),
			t.CoherenceCost.Percentile(50), t.CoherenceCost.Percentile(99))
	}
	fmt.Fprintf(&b, "\nFigure 6: slack intervals (ms)\n")
	for _, t := range s.Traces {
		fmt.Fprintf(&b, "%-10s n=%d mean=%.1f p50=%.1f p90=%.1f | API calls/s %.0f\n",
			t.Platform, t.SlackIntervals.Count(), t.SlackIntervals.Mean(),
			t.SlackIntervals.Percentile(50), t.SlackIntervals.Percentile(90),
			t.APICallsPerSecond)
	}
	b.WriteString(formatStudyCDFs(s, "Figure 4: shared memory region sizes (MiB)",
		func(t *PlatformTrace) *metrics.Distribution { return &t.RegionSizes }))
	b.WriteString(formatStudyCDFs(s, "Figure 5: coherence maintenance cost (ms)",
		func(t *PlatformTrace) *metrics.Distribution { return &t.CoherenceCost }))
	b.WriteString(formatStudyCDFs(s, "Figure 6: slack intervals (ms)",
		func(t *PlatformTrace) *metrics.Distribution { return &t.SlackIntervals }))
	return b.String()
}

// formatStudyCDFs renders one figure's distribution as a 20-point CDF per
// platform.
func formatStudyCDFs(s *StudyResult, title string, pick func(*PlatformTrace) *metrics.Distribution) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for i := range s.Traces {
		tr := &s.Traces[i]
		d := pick(tr)
		if d.Count() == 0 {
			fmt.Fprintf(&b, "\n%s: no samples\n", tr.Platform)
			continue
		}
		fmt.Fprintf(&b, "\n%s (n=%d, mean=%.2f):\n", tr.Platform, d.Count(), d.Mean())
		for _, p := range d.CDF(20) {
			fmt.Fprintf(&b, "  F=%.2f  %8.2f\n", p.F, p.Value)
		}
	}
	return b.String()
}

func formatCDF(pts []metrics.CDFPoint, unit string) string {
	var b strings.Builder
	step := len(pts) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		fmt.Fprintf(&b, "  F=%.2f  %.2f %s\n", pts[i].F, pts[i].Value, unit)
	}
	if len(pts) > 0 {
		last := pts[len(pts)-1]
		fmt.Fprintf(&b, "  F=%.2f  %.2f %s\n", last.F, last.Value, unit)
	}
	return b.String()
}
