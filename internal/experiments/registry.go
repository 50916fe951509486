package experiments

import (
	"fmt"
	"strings"

	"repro/internal/emulator"
)

// Entry describes one experiment exposed by the command-line tools. The
// registry is the single description of every experiment: its name,
// ordering, aliases and usage text, how to run and print it, and what it
// contributes to the bench trajectory. cmd/vsocbench and bench_test.go loop
// over it.
type Entry struct {
	// Name is the canonical -exp value.
	Name string
	// Aliases are alternate -exp values running the same experiment
	// (fig13 prints with fig10, fig14 with fig11: same runs).
	Aliases []string
	// Summary is the one-line description shown in usage text.
	Summary string
	// Trace describes how -trace interacts with this experiment; empty
	// means the flag is ignored by it.
	Trace string
	// Profile describes how -profile interacts with this experiment;
	// empty means the flag is ignored by it.
	Profile string
	// Bench marks experiments that contribute metrics to the -json bench
	// report (the machine-readable trajectory cmd/vsocperf diffs): exactly
	// those whose Run returns metrics.
	Bench bool
	// Flags lists the other optional vsocbench flags the experiment honours
	// (-fetch, -metrics, -monout); vsocbench rejects one that no selected
	// experiment lists.
	Flags []string
	// InAll marks experiments included in `-exp all`. The study and the
	// farm scenarios are excluded so `-exp all` output stays
	// byte-comparable with builds that predate them.
	InAll bool
	// Run runs the experiment at cfg and returns its report text and its
	// bench metrics, named "<experiment>.<quantity>" (shardscale's fleet.*
	// and phasedload's phased.* names predate that rule). err reports a
	// side file that could not be written.
	Run func(cfg Config) (text string, metrics []BenchMetric, err error)
}

// Registry returns the experiments in canonical execution order — the order
// `-exp all` runs them and usage text lists them.
func Registry() []Entry {
	return []Entry{
		{Name: "table1", InAll: true,
			Summary: "emerging-app taxonomy and compatibility (Table 1)",
			Run:     runner(func(Config) []Table1Row { return Table1() }, FormatTable1, nil)},
		{Name: "study", Bench: true,
			Summary: "shared-memory characterization on the physical device, GAE and QEMU-KVM: region sizes, coherence cost and slack CDFs (§2.3, Figs. 4-6); excluded from -exp all",
			Run:     runner(RunStudy, FormatStudy, studyMetrics)},
		{Name: "table2", InAll: true, Bench: true,
			Summary: "SVM microbenchmarks: access latency, coherence cost, throughput (Table 2)",
			Run:     runner(RunTable2, FormatTable2, table2Metrics)},
		{Name: "fig10", Aliases: []string{"fig13"}, InAll: true, Bench: true,
			Summary: "emerging-app FPS and motion-to-photon, high-end desktop (Figs. 10+13)",
			Run:     emerging(HighEnd, "10", "13")},
		{Name: "fig11", Aliases: []string{"fig14"}, InAll: true, Bench: true,
			Summary: "emerging-app FPS and motion-to-photon, middle-end laptop (Figs. 11+14)",
			Run:     emerging(MidEnd, "11", "14")},
		{Name: "fig12", InAll: true, Bench: true,
			Summary: "vSoC ablations on the emerging apps (Fig. 12)",
			Run:     runner(RunAblation, FormatAblation, ablationMetrics)},
		{Name: "fig15", InAll: true, Bench: true,
			Summary: "popular-app FPS comparison (Fig. 15)",
			Run:     runner(RunPopular, FormatPopular, popularMetrics)},
		{Name: "popablation", InAll: true, Bench: true,
			Summary: "vSoC ablations on the popular apps (§5.5)",
			Run:     runner(RunPopularAblation, FormatPopularAblation, popularAblationMetrics)},
		{Name: "prediction", InAll: true, Bench: true,
			Summary: "prefetch prediction accuracy and timing error (§5.2)",
			Run:     runner(RunPrediction, FormatPrediction, predictionMetrics)},
		{Name: "overhead", InAll: true, Bench: true,
			Summary: "SVM framework memory/CPU overhead and fence-table peak (§5.2)",
			Trace:   "writes exactly the given path",
			Flags:   []string{"-metrics"},
			Run:     runner(RunOverhead, FormatOverhead, overheadMetrics)},
		{Name: "fig16", InAll: true, Bench: true,
			Summary: "write-invalidate access-latency CDF and its critical-path attribution: per-component latency, demand-fetch breakdown, top-K slowest frames (Fig. 16, §5.4)",
			Profile: "writes the folded-stack flamegraph export to the given path",
			Flags:   []string{"-fetch"},
			Run:     runFig16Entry},
		{Name: "services", InAll: true, Bench: true,
			Summary: "shared-memory usage by Android service (§2.3 attribution study)",
			Run:     runner(RunServices, FormatServices, servicesMetrics)},
		{Name: "protocols", InAll: true, Bench: true,
			Summary: "coherence-protocol head-to-head on a churning pipeline (§7)",
			Run:     runner(RunProtocols, FormatProtocols, protocolMetrics)},
		{Name: "thermal", InAll: true, Bench: true,
			Summary: "laptop thermal-throttling trajectory (§5.3)",
			Run:     runner(RunThermal, FormatThermal, thermalMetrics)},
		{Name: "resolution", InAll: true, Bench: true,
			Summary: "FPS across video resolutions (§5.3 functional check)",
			Run:     runner(RunResolutionSweep, FormatResolution, resolutionMetrics)},
		{Name: "robustness", InAll: true, Bench: true,
			Summary: "fault-injection degradation and recovery curves",
			Trace:   "writes one file per (emulator, fault) cell next to the given path",
			Flags:   []string{"-metrics"},
			Run:     runner(RunRobustness, FormatRobustness, robustnessMetrics)},
		{Name: "shardscale", Bench: true,
			Summary: "four-guest farm sharing one host's PCIe budget, run in 2 ms arbitration windows: per-guest FPS, events and events/s (DESIGN.md §12), the QoS/SLO fleet report and the window loop's wall-clock split (§13), and the monitor report (§15); -monout writes the monitor report for cmd/vsocmon; excluded from -exp all",
			Trace:   "writes the fleet-counter trace next to the given path, as *-fleet.json",
			Flags:   []string{"-monout"},
			Run:     runner(RunShardScale, FormatShardScale, shardScaleMetrics)},
		{Name: "phasedload", Bench: true,
			Summary: "monitored phased-load scenario (steady/spike/fault/recovery) exercising the streaming telemetry engine's windowed rollups, online detectors, and incident flight recorder (DESIGN.md §15); -monout writes the monitor report for cmd/vsocmon; excluded from -exp all",
			Trace:   "writes one flight-recorder Perfetto snippet per incident next to the given path",
			Flags:   []string{"-monout"},
			Run:     runner(RunPhasedLoad, FormatPhasedLoad, phasedLoadMetrics)},
	}
}

// runner builds an Entry.Run from an experiment's run, text and bench-metric
// functions; metrics is nil for experiments outside the bench trajectory.
func runner[R any](run func(Config) R, text func(R) string, metrics func(R) []BenchMetric) func(Config) (string, []BenchMetric, error) {
	return func(cfg Config) (string, []BenchMetric, error) {
		r := run(cfg)
		var ms []BenchMetric
		if metrics != nil {
			ms = metrics(r)
		}
		return text(r), ms, nil
	}
}

// emerging is the Entry.Run of one machine's emerging-app sweep, printed as
// Figs. figFPS and figLat and measured as experiment "fig"+figFPS.
func emerging(machine MachineSpec, figFPS, figLat string) func(Config) (string, []BenchMetric, error) {
	return runner(func(cfg Config) *EmergingResult { return RunEmergingSweep(cfg, machine) },
		func(r *EmergingResult) string { return FormatEmerging(r, figFPS, figLat) },
		func(r *EmergingResult) []BenchMetric { return emergingMetrics("fig"+figFPS, r) })
}

// The bench metrics of the paper's tables and figures, one projection per
// experiment. Names read "<experiment>.<subject>.<quantity>", the subject
// being an emulator, variant or protocol (see metricKey); every value is a
// deterministic function of the Config.

// metricKey turns an emulator or protocol name into a metric-name token:
// "QEMU-KVM" -> "qemu_kvm".
func metricKey(name string) string { return strings.ToLower(strings.ReplaceAll(name, "-", "_")) }

// studyMetrics: per platform, the Fig. 4 region-size median and share above
// 1 MiB, the Fig. 5 coherence mean (only where copies happen; unified memory
// has none to average), the Fig. 6 slack mean and the HAL call rate.
func studyMetrics(s *StudyResult) []BenchMetric {
	var ms []BenchMetric
	for _, t := range s.Traces {
		k := "study." + metricKey(t.Platform) + "."
		ms = append(ms,
			BenchMetric{k + "region_p50_mib", t.RegionSizes.Percentile(50), "MiB", "higher"},
			BenchMetric{k + "region_over_1mib_frac", t.RegionSizes.FractionAbove(1), "frac", "higher"})
		if t.CoherenceCost.Count() > 0 {
			ms = append(ms, BenchMetric{k + "coherence_mean_ms", t.CoherenceCost.Mean(), "ms", "lower"})
		}
		ms = append(ms,
			BenchMetric{k + "slack_mean_ms", t.SlackIntervals.Mean(), "ms", "higher"},
			BenchMetric{k + "api_calls_per_s", t.APICallsPerSecond, "1/s", "higher"})
	}
	return ms
}

func table2Metrics(t *Table2Result) []BenchMetric {
	machine := map[string]string{HighEnd.Name: "desktop", MidEnd.Name: "laptop"}
	var ms []BenchMetric
	for _, r := range t.Rows {
		k := "table2." + metricKey(r.Emulator) + "_" + machine[r.Machine] + "."
		ms = append(ms,
			BenchMetric{k + "access_ms", r.AccessLatencyMS, "ms", "lower"},
			BenchMetric{k + "coherence_ms", r.CoherenceCostMS, "ms", "lower"},
			BenchMetric{k + "throughput_gbs", r.ThroughputGBs, "GB/s", "higher"})
	}
	return ms
}

func emergingMetrics(exp string, r *EmergingResult) []BenchMetric {
	var ms []BenchMetric
	for _, p := range emulator.All() {
		k := exp + "." + metricKey(p.Name) + "."
		ms = append(ms, BenchMetric{k + "fps", r.MeanFPSOf(p.Name), "fps", "higher"})
		if m2p := r.MeanLatencyOf(p.Name); m2p > 0 {
			ms = append(ms, BenchMetric{k + "m2p_ms", m2p, "ms", "lower"})
		}
	}
	return ms
}

// ablationMetrics: a drop is the FPS share the ablated mechanism is worth,
// so a larger drop is the stronger result.
func ablationMetrics(r *AblationResult) []BenchMetric {
	return []BenchMetric{
		{"fig12.noprefetch.drop_frac", r.AvgDropNoPrefetch(), "frac", "higher"},
		{"fig12.noprefetch.video_drop_frac", r.VideoDropNoPrefetch(), "frac", "higher"},
		{"fig12.nofence.drop_frac", r.AvgDropNoFence(), "frac", "higher"},
	}
}

func popularMetrics(r *PopularResult) []BenchMetric {
	var ms []BenchMetric
	for _, c := range r.Cells {
		ms = append(ms, BenchMetric{"fig15." + metricKey(c.Emulator) + ".fps", c.MeanFPS, "fps", "higher"})
	}
	return ms
}

func popularAblationMetrics(r *PopularAblationResult) []BenchMetric {
	return []BenchMetric{
		{"popablation.full.fps", r.FullMean, "fps", "higher"},
		{"popablation.noprefetch.fps", r.NoPrefetchMean, "fps", "higher"},
		{"popablation.nofence.fps", r.NoFenceMean, "fps", "higher"},
	}
}

func predictionMetrics(r *PredictionResult) []BenchMetric {
	minAcc := 1.0
	for _, acc := range r.DeviceAccuracy {
		minAcc = min(minAcc, acc)
	}
	return []BenchMetric{
		{"prediction.min_accuracy_frac", minAcc, "frac", "higher"},
		{"prediction.slack_stderr_ms", r.SlackStdErrMS, "ms", "lower"},
		{"prediction.prefetch_stderr_ms", r.PrefetchStdErrMS, "ms", "lower"},
	}
}

func overheadMetrics(r *OverheadResult) []BenchMetric {
	return []BenchMetric{
		{"overhead.memory_mib", float64(r.MemoryBytes) / (1 << 20), "MiB", "lower"},
		{"overhead.cpu_frac", r.CPUFraction, "frac", "lower"},
	}
}

// Fig16Metrics: the CDF's summary, then the attribution's demand-fetch
// coverage and mean (the tuner's objective) and its frame critical path.
// The tuner scores a candidate fetch config by this projection, so its gate
// guards exactly these metrics.
func Fig16Metrics(r *Fig16Result) []BenchMetric {
	cov, _ := r.Report.ClassCoverage("demand-fetch")
	var fetchMS, frameMS float64
	if cs := r.Report.Classes["demand-fetch"]; cs != nil && cs.Count > 0 {
		fetchMS = float64(cs.Total.Microseconds()) / 1000 / float64(cs.Count)
	}
	if r.Report.Frames > 0 {
		frameMS = float64(r.Report.Total.Milliseconds()) / float64(r.Report.Frames)
	}
	return []BenchMetric{
		{"fig16.access_latency_mean_ms", r.MeanMS, "ms", "lower"},
		{"fig16.access_latency_p99_ms", r.P99MS, "ms", "lower"},
		{"fig16.access_latency_max_ms", r.MaxMS, "ms", "lower"},
		{"fig16.demand_fetch_coverage", cov, "frac", "higher"},
		{"fig16.demand_fetch_mean_ms", fetchMS, "ms", "lower"},
		{"fig16.frame_critical_path_mean_ms", frameMS, "ms", "lower"},
		{"fig16.frames", float64(r.Report.Frames), "count", "higher"},
	}
}

func servicesMetrics(r *ServicesResult) []BenchMetric {
	return []BenchMetric{
		{"services.few_sharer_frac", r.FewSharerFraction, "frac", "higher"},
		{"services.cyclic_frac", r.CyclicFraction, "frac", "higher"},
		{"services.api_calls_per_s", r.CallsPerSecond, "1/s", "higher"},
	}
}

func protocolMetrics(r *ProtocolResult) []BenchMetric {
	var ms []BenchMetric
	for _, c := range r.Cells {
		k := "protocols." + metricKey(c.Protocol) + "."
		ms = append(ms,
			BenchMetric{k + "read_ms", c.ReadLatencyMS, "ms", "lower"},
			BenchMetric{k + "waste_frac", c.WasteFraction, "frac", "lower"})
	}
	return ms
}

// thermalMetrics: both presets decode UHD video, and RunThermal runs at
// least 100 s, so each trajectory has its ten buckets.
func thermalMetrics(r *ThermalResult) []BenchMetric {
	return []BenchMetric{
		{"thermal.gae.first_fps", r.GAE[0], "fps", "higher"},
		{"thermal.gae.last_fps", r.GAE[len(r.GAE)-1], "fps", "higher"},
		{"thermal.vsoc.first_fps", r.VSoC[0], "fps", "higher"},
		{"thermal.vsoc.last_fps", r.VSoC[len(r.VSoC)-1], "fps", "higher"},
	}
}

func resolutionMetrics(r *ResolutionResult) []BenchMetric {
	var ms []BenchMetric
	for _, c := range r.Cells {
		name := fmt.Sprintf("resolution.%s.fps_%dp", metricKey(c.Emulator), c.Height)
		ms = append(ms, BenchMetric{name, c.FPS, "fps", "higher"})
	}
	return ms
}

// robustnessMetrics: per (emulator, fault) cell, the FPS inside the fault
// window and after it clears — the degradation and the recovery.
func robustnessMetrics(r *RobustnessResult) []BenchMetric {
	var ms []BenchMetric
	for _, c := range r.Cells {
		k := "robustness." + metricKey(c.Emulator) + "." + metricKey(string(c.Fault)) + "."
		ms = append(ms,
			BenchMetric{k + "fault_fps", c.FaultFPS, "fps", "higher"},
			BenchMetric{k + "recovered_fps", c.RecoveredFPS, "fps", "higher"})
	}
	return ms
}

// LookupExperiment resolves a -exp value (canonical name or alias) to its
// registry entry.
func LookupExperiment(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == name {
				return e, true
			}
		}
	}
	return Entry{}, false
}

// ExperimentNames returns "all" plus every canonical name and alias in
// registry order, for one-line usage summaries.
func ExperimentNames() string {
	parts := []string{"all"}
	for _, e := range Registry() {
		parts = append(parts, e.Name)
		parts = append(parts, e.Aliases...)
	}
	return strings.Join(parts, "|")
}

// UsageText returns the generated experiment list for long-form usage:
// one line per experiment with its summary, any -trace or -profile
// interaction, and the other flags it honours.
func UsageText() string {
	var b strings.Builder
	for _, e := range Registry() {
		name := e.Name
		if len(e.Aliases) > 0 {
			name += " (" + strings.Join(e.Aliases, ", ") + ")"
		}
		b.WriteString("  ")
		b.WriteString(name)
		b.WriteString("\n        ")
		b.WriteString(e.Summary)
		if e.Trace != "" {
			b.WriteString("\n        -trace: ")
			b.WriteString(e.Trace)
		}
		if e.Profile != "" {
			b.WriteString("\n        -profile: ")
			b.WriteString(e.Profile)
		}
		if len(e.Flags) > 0 {
			b.WriteString("\n        flags: ")
			b.WriteString(strings.Join(e.Flags, ", "))
		}
		b.WriteString("\n")
	}
	return b.String()
}
