// Command vsocbench regenerates the paper's tables and figures: the §2.3
// measurement study behind Figs. 4-6, the SVM microbenchmarks of Table 2,
// the FPS and motion-to-photon comparisons of Figs. 10-15, the ablation
// breakdowns, the prediction and overhead reports of §5.2, the
// write-invalidate CDF of Fig. 16, and the notification-batching sweep of
// DESIGN.md §9.
//
// Usage:
//
//	vsocbench [-exp <name>[,<name>...]] [-duration 30s] [-apps 10]
//	          [-popular 25] [-seed 1] [-workers 0] [-trace out.json]
//	          [-metrics] [-profile out.folded] [-json bench.json] [-fetch]
//	          [-monout mon.json]
//
// Run with -h for the experiment list. Everything about an experiment —
// name, aliases, ordering, usage text, how it runs and prints, which output
// flags it honours and the bench metrics it contributes — comes from the
// experiments registry (internal/experiments/registry.go); vsocbench loops
// over the entries -exp selects. cmd/vsoctune drives the config search.
//
// -workers bounds how many app sessions simulate concurrently (0 = one per
// CPU, 1 = serial). Results are identical at every setting; only wall-clock
// time changes.
//
// -trace writes virtual-time Chrome/Perfetto trace-event JSON (open it at
// ui.perfetto.dev) for the experiments that support it. -metrics appends a
// plain-text dump of the runs' counters, gauges, and histograms to their
// reports. Both observe only: with them off, output is byte-identical to a
// build without the observability layer.
//
// `-exp all` runs the paper's tables and figures (the entries marked
// InAll), so its output stays comparable across builds; the study, the
// sweeps, the profiled micro run and the farm scenarios run only when named.
// `all` may also sit inside a list (`-exp micro,all`).
//
// The farm scenarios always observe: the shardscale farm carries the fleet
// layer (DESIGN.md §13: per-tenant QoS/SLO report, the window loop's
// wall-clock split, and with -trace the fleet-counter trace) and the
// streaming telemetry engine (§15: windowed virtual-time rollups, online
// SLO/anomaly detectors, the incident flight recorder), and phasedload the
// engine. Both layers only observe. -monout writes the machine-readable
// monitor report for cmd/vsocmon to render.
//
// -profile writes the critical-path profiler's folded-stack flamegraph
// export for the experiments that support it (micro); feed it to any
// flamegraph renderer. -json writes the machine-readable bench report —
// a stable, sorted JSON trajectory of every selected experiment's named
// metrics — for cmd/vsocperf to diff against a baseline run. Any of -trace,
// -profile, -json, -fetch, -metrics or -monout with no selected experiment
// that honours it is a usage error (exit 2), as are bad counts and unknown
// experiments; -h lists what each experiment honours.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var cfg experiments.Config
	cfg.BindFlags(flag.CommandLine)
	exp := flag.String("exp", "all", "experiment to run, or a comma-separated list ("+experiments.ExperimentNames()+")")
	flag.IntVar(&cfg.AppsPerCategory, "apps", 10, "apps per emerging category")
	flag.IntVar(&cfg.PopularApps, "popular", 25, "popular apps to run")
	flag.IntVar(&cfg.Workers, "workers", 0, "concurrent app sessions (0 = one per CPU, 1 = serial)")
	flag.StringVar(&cfg.TracePath, "trace", "", "write Chrome/Perfetto trace JSON where the experiment supports it (see -h)")
	flag.BoolVar(&cfg.Metrics, "metrics", false, "append a metrics dump to supporting experiment reports (overhead, robustness)")
	flag.StringVar(&cfg.ProfilePath, "profile", "", "write the folded-stack flamegraph export where the experiment supports it (see -h)")
	jsonPath := flag.String("json", "", "write the machine-readable bench report (for cmd/vsocperf) to this path")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nExperiments ('all' runs each one not excluded from it):\n%s",
			experiments.UsageText())
	}
	flag.Parse()

	entries, labels, err := checkFlags(*exp, cfg, *jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsocbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	wallStart := time.Now()
	bench := map[string][]experiments.BenchMetric{}
	for i, e := range entries {
		start := time.Now()
		text, ms, err := e.Run(cfg)
		fmt.Print(text)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsocbench: %v\n", err)
			os.Exit(1)
		}
		if len(ms) > 0 {
			bench[e.Name] = ms
		}
		fmt.Printf("[%s in %.1fs]\n\n", labels[i], time.Since(start).Seconds())
	}
	if *jsonPath != "" {
		if err := experiments.NewBenchReport(bench).WriteJSONFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "vsocbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[bench report written to %s]\n", *jsonPath)
	}
	fmt.Printf("[total %.1fs, %d workers]\n", time.Since(wallStart).Seconds(), cfg.EffectiveWorkers())
}

// maxPopular is the size of Fig. 15's popular-app mix.
const maxPopular = 25

// checkFlags resolves -exp and rejects, before anything runs, the flags
// the selected experiments cannot honour: counts and durations that would
// otherwise panic (a negative -popular slices the app mix), print an all-n/a
// report, or fall back silently to a default (-duration 0 runs the session
// default, a negative -workers one worker per CPU), and any of -trace,
// -profile, -json, -fetch, -metrics or -monout that no selected experiment
// honours (registry Trace, Profile, Bench and Flags).
//
// -exp is a comma-separated list of names, aliases and "all" (every InAll
// experiment), run in the order given; labels holds each run's name as
// typed, so alias runs log as requested.
func checkFlags(exp string, cfg experiments.Config, jsonPath string) (entries []experiments.Entry, labels []string, err error) {
	var errs []error
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			for _, e := range experiments.Registry() {
				if e.InAll {
					entries, labels = append(entries, e), append(labels, e.Name)
				}
			}
		} else if e, ok := experiments.LookupExperiment(name); ok {
			entries, labels = append(entries, e), append(labels, name)
		} else if name != "" {
			errs = append(errs, fmt.Errorf("unknown experiment %q", name))
		}
	}
	if len(entries) == 0 && len(errs) == 0 {
		errs = append(errs, errors.New("empty -exp list"))
	}
	honoured := map[string]bool{}
	for _, e := range entries {
		honoured["-trace"] = honoured["-trace"] || e.Trace != ""
		honoured["-profile"] = honoured["-profile"] || e.Profile != ""
		honoured["-json"] = honoured["-json"] || e.Bench
		for _, f := range e.Flags {
			honoured[f] = true
		}
	}
	for _, f := range []struct {
		name, path string // path: the file a file flag names
		set        bool
	}{
		{"-trace", cfg.TracePath, cfg.TracePath != ""},
		{"-profile", cfg.ProfilePath, cfg.ProfilePath != ""},
		{"-json", jsonPath, jsonPath != ""},
		{"-fetch", "", cfg.Fetch},
		{"-metrics", "", cfg.Metrics},
		{"-monout", cfg.MonPath, cfg.MonPath != ""},
	} {
		if f.set && !honoured[f.name] && len(entries) > 0 {
			errs = append(errs, fmt.Errorf("%s: no selected experiment honours it (see -h)", strings.TrimSpace(f.name+" "+f.path)))
		}
	}
	var popErr error
	if cfg.PopularApps < 1 || cfg.PopularApps > maxPopular {
		popErr = fmt.Errorf("-popular must be in 1..%d, got %d", maxPopular, cfg.PopularApps)
	}
	errs = append(errs, experiments.CheckApps(cfg.AppsPerCategory), popErr,
		experiments.CheckDuration(cfg.Duration), experiments.CheckWorkers(cfg.Workers))
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return entries, labels, nil
}
