package experiments

import "strings"

// Entry describes one experiment exposed by the command-line tools. The
// registry is the single source of truth for experiment names, ordering,
// aliases, and usage text: cmd/vsocbench and cmd/vsoctrace generate their
// usage strings from it instead of hand-maintaining parallel lists (which
// had drifted apart in both order and content).
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
	// report (the machine-readable trajectory cmd/vsocperf diffs).
	Bench bool
	// InAll marks experiments included in `-exp all`. The batching sweep
	// is excluded so `-exp all` output stays byte-comparable with builds
	// that predate it.
	InAll bool
}

// Registry returns the experiments in canonical execution order — the order
// `-exp all` runs them and usage text lists them.
func Registry() []Entry {
	return []Entry{
		{Name: "table1", InAll: true,
			Summary: "emerging-app taxonomy and compatibility (Table 1)"},
		{Name: "table2", InAll: true,
			Summary: "SVM microbenchmarks: access latency, coherence cost, throughput (Table 2)"},
		{Name: "fig10", Aliases: []string{"fig13"}, InAll: true,
			Summary: "emerging-app FPS and motion-to-photon, high-end desktop (Figs. 10+13)"},
		{Name: "fig11", Aliases: []string{"fig14"}, InAll: true,
			Summary: "emerging-app FPS and motion-to-photon, middle-end laptop (Figs. 11+14)"},
		{Name: "fig12", InAll: true,
			Summary: "vSoC ablations on the emerging apps (Fig. 12)"},
		{Name: "fig15", InAll: true,
			Summary: "popular-app FPS comparison (Fig. 15)"},
		{Name: "popablation", InAll: true,
			Summary: "vSoC ablations on the popular apps (§5.5)"},
		{Name: "prediction", InAll: true,
			Summary: "prefetch prediction accuracy and timing error (§5.2)"},
		{Name: "overhead", InAll: true,
			Summary: "SVM framework memory/CPU overhead and fence-table peak (§5.2)",
			Trace:   "writes exactly the given path"},
		{Name: "fig16", InAll: true,
			Summary: "write-invalidate access-latency CDF (Fig. 16, §5.4)"},
		{Name: "micro", Bench: true,
			Summary: "Fig. 16 rerun with the critical-path profiler: per-component latency attribution, demand-fetch breakdown, top-K slowest frames (§5.4); excluded from -exp all",
			Profile: "writes the folded-stack flamegraph export to the given path"},
		{Name: "services", InAll: true,
			Summary: "shared-memory usage by Android service (§2.3 attribution study)"},
		{Name: "protocols", InAll: true,
			Summary: "coherence-protocol head-to-head on a churning pipeline (§7)"},
		{Name: "thermal", InAll: true,
			Summary: "laptop thermal-throttling trajectory (§5.3)"},
		{Name: "resolution", InAll: true,
			Summary: "FPS across video resolutions (§5.3 functional check)"},
		{Name: "robustness", InAll: true,
			Summary: "fault-injection degradation and recovery curves",
			Trace:   "writes one file per (emulator, fault) cell next to the given path"},
		{Name: "batching",
			Summary: "notification-batching sweep: notifications/op and Table-2 deltas across batch windows (DESIGN.md §9); excluded from -exp all"},
		{Name: "fetchpipe",
			Summary: "chunked demand-fetch sweep: access latency and sync-copy share across chunk sizes (DESIGN.md §11); excluded from -exp all"},
		{Name: "shardscale", Bench: true,
			Summary: "four-guest farm sharing one host's PCIe budget, run in 2 ms arbitration windows: per-guest FPS, events and events/s (DESIGN.md §12); -fleet adds the QoS/SLO fleet report and the window loop's wall-clock split (§13), -mon the monitor report (§15); excluded from -exp all",
			Trace:   "with -fleet, writes the fleet-counter trace next to the given path, as *-fleet.json"},
		{Name: "phasedload", Bench: true,
			Summary: "monitored phased-load scenario (steady/spike/fault/recovery) exercising the streaming telemetry engine's windowed rollups, online detectors, and incident flight recorder (DESIGN.md §15); -monout writes the monitor report for cmd/vsocmon; excluded from -exp all",
			Trace:   "writes one flight-recorder Perfetto snippet per incident next to the given path"},
		{Name: "tune",
			Summary: "auto-tune the batching/fetch/prefetch config space per preset: deterministic grid + hill-climb search with constrained objectives (DESIGN.md §14, cmd/vsoctune has the full flag set); excluded from -exp all"},
	}
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
// one line per experiment with its summary and any -trace interaction.
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
		b.WriteString("\n")
	}
	return b.String()
}
