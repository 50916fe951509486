// Command vsocbench regenerates the paper's evaluation tables and figures
// (§5): the SVM microbenchmarks of Table 2, the FPS and motion-to-photon
// comparisons of Figs. 10-15, the ablation breakdowns, the prediction and
// overhead reports of §5.2, the write-invalidate CDF of Fig. 16, and the
// notification-batching sweep of DESIGN.md §9.
//
// Usage:
//
//	vsocbench [-exp <name>[,<name>...]] [-duration 30s] [-apps 10]
//	          [-popular 25] [-seed 1] [-workers 0] [-trace out.json]
//	          [-metrics] [-profile out.folded] [-json bench.json] [-fetch]
//	          [-fleet] [-mon] [-monout mon.json]
//
// Run with -h for the experiment list; names, aliases, ordering, and the
// per-experiment -trace behavior all come from the shared experiments
// registry (internal/experiments/registry.go), which cmd/vsoctrace's usage
// is generated from too.
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
// `-exp all` runs every registered experiment except the batching sweep and
// the profiled micro run, so its output stays comparable across builds; run
// `-exp batching` / `-exp micro` explicitly.
//
// -fleet enables the fleet observability layer (DESIGN.md §13) for the
// shardscale farm: per-tenant QoS/SLO tracking, the deterministic fleet
// report, and the wall-clock split of the window loop. Observe-only:
// simulation results are byte-identical with it on or off. With -trace it
// also writes the fleet-counter trace.
//
// -mon enables the streaming telemetry engine (DESIGN.md §15) for the
// experiments that support it: windowed virtual-time rollups, online
// SLO/anomaly detectors, and the incident flight recorder. The phasedload
// scenario monitors unconditionally (monitoring is its subject); the
// shardscale farm monitors when -mon is set. -monout writes the
// machine-readable monitor report for cmd/vsocmon to render.
//
// -profile writes the critical-path profiler's folded-stack flamegraph
// export for the experiments that support it (micro); feed it to any
// flamegraph renderer. -json writes the machine-readable bench report —
// a stable, sorted JSON trajectory of named metrics — for cmd/vsocperf
// to diff against a baseline run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/tune"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run, or a comma-separated list ("+experiments.ExperimentNames()+")")
	duration := flag.Duration("duration", 30*time.Second, "simulated duration per app")
	apps := flag.Int("apps", 10, "apps per emerging category")
	popular := flag.Int("popular", 25, "popular apps to run")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent app sessions (0 = one per CPU, 1 = serial)")
	tracePath := flag.String("trace", "", "write Chrome/Perfetto trace JSON where the experiment supports it (see -h)")
	metrics := flag.Bool("metrics", false, "append a metrics dump to supporting experiment reports")
	profilePath := flag.String("profile", "", "write the folded-stack flamegraph export where the experiment supports it (see -h)")
	jsonPath := flag.String("json", "", "write the machine-readable bench report (for cmd/vsocperf) to this path")
	fetch := flag.Bool("fetch", false, "enable chunked, DMA-promoted demand fetches (DESIGN.md §11) for supporting experiments (micro, fig16)")
	fleet := flag.Bool("fleet", false, "enable fleet telemetry (DESIGN.md §13) for the shardscale farm: QoS/SLO report and the window loop's wall-clock split")
	mon := flag.Bool("mon", false, "enable the streaming telemetry engine (DESIGN.md §15) for supporting experiments (shardscale); phasedload monitors unconditionally")
	monOut := flag.String("monout", "", "write the machine-readable monitor report (for cmd/vsocmon) to this path")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nExperiments ('all' runs each of these except batching):\n%s",
			experiments.UsageText())
	}
	flag.Parse()
	if err := checkFlags(*apps, *popular, *duration, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "vsocbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{
		Duration:        *duration,
		AppsPerCategory: *apps,
		PopularApps:     *popular,
		Seed:            *seed,
		Workers:         *workers,
		TracePath:       *tracePath,
		Metrics:         *metrics,
		ProfilePath:     *profilePath,
		Fetch:           *fetch,
		Fleet:           *fleet,
		Monitor:         *mon,
		MonPath:         *monOut,
	}

	// Runners by canonical experiment name (see the registry for aliases).
	// A runner prints its report and returns any metrics it contributes to
	// the -json bench report (nil for experiments outside the trajectory).
	runners := map[string]func() []experiments.BenchMetric{
		"table1": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatTable1(experiments.Table1()))
			return nil
		},
		"table2": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatTable2(experiments.RunTable2(cfg)))
			return nil
		},
		"fig10": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatEmerging(experiments.RunEmergingSweep(cfg, experiments.HighEnd), "10", "13"))
			return nil
		},
		"fig11": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatEmerging(experiments.RunEmergingSweep(cfg, experiments.MidEnd), "11", "14"))
			return nil
		},
		"fig12": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatAblation(experiments.RunAblation(cfg)))
			return nil
		},
		"fig15": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatPopular(experiments.RunPopular(cfg)))
			return nil
		},
		"popablation": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatPopularAblation(experiments.RunPopularAblation(cfg)))
			return nil
		},
		"prediction": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatPrediction(experiments.RunPrediction(cfg)))
			return nil
		},
		"overhead": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatOverhead(experiments.RunOverhead(cfg)))
			return nil
		},
		"fig16": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatFig16(experiments.RunFig16(cfg)))
			return nil
		},
		"micro": func() []experiments.BenchMetric {
			r := experiments.RunMicro(cfg)
			fmt.Print(experiments.FormatMicro(r))
			if cfg.ProfilePath != "" {
				if err := writeFolded(cfg.ProfilePath, r); err != nil {
					fmt.Fprintf(os.Stderr, "vsocbench: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("[folded-stack profile written to %s]\n", cfg.ProfilePath)
			}
			return experiments.MicroBenchMetrics(r)
		},
		"services": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatServices(experiments.RunServices(cfg)))
			return nil
		},
		"protocols": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatProtocols(experiments.RunProtocols(cfg)))
			return nil
		},
		"thermal": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatThermal(experiments.RunThermal(cfg)))
			return nil
		},
		"resolution": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatResolution(experiments.RunResolutionSweep(cfg)))
			return nil
		},
		"robustness": func() []experiments.BenchMetric {
			r := experiments.RunRobustness(cfg)
			fmt.Print(experiments.FormatRobustness(r))
			fmt.Print(experiments.FormatRobustnessObs(r))
			return nil
		},
		"batching": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatBatching(experiments.RunBatching(cfg)))
			return nil
		},
		"fetchpipe": func() []experiments.BenchMetric {
			fmt.Print(experiments.FormatFetchPipe(experiments.RunFetchPipe(cfg)))
			return nil
		},
		"shardscale": func() []experiments.BenchMetric {
			r := experiments.RunShardScale(cfg)
			fmt.Print(experiments.FormatShardScale(r))
			return experiments.ShardScaleBenchMetrics(r)
		},
		"phasedload": func() []experiments.BenchMetric {
			r := experiments.RunPhasedLoad(cfg)
			fmt.Print(experiments.FormatPhasedLoad(r))
			return experiments.PhasedLoadBenchMetrics(r)
		},
		"tune": func() []experiments.BenchMetric {
			// The tuner re-runs the evaluation probe once per candidate, so
			// cap the per-evaluation cost: full -duration/-apps would
			// multiply a 30s session by the whole search budget. cmd/vsoctune
			// exposes the uncapped flag set.
			tcfg := cfg
			if tcfg.Duration > 6*time.Second {
				tcfg.Duration = 6 * time.Second
			}
			if tcfg.AppsPerCategory > 2 {
				tcfg.AppsPerCategory = 2
			}
			opts := tune.Options{Seed: cfg.Seed, Budget: 24}
			for _, p := range []emulator.Preset{emulator.VSoCNoPrefetch(), emulator.VSoC()} {
				fmt.Print(tune.Run(tcfg, p, opts).FormatResult())
			}
			return nil
		},
	}

	// -exp accepts a comma-separated list (e.g. micro,shardscale), run in
	// the order given with their bench metrics merged into one -json report.
	var entries []experiments.Entry
	var labels []string
	if *exp != "all" {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			e, known := experiments.LookupExperiment(name)
			if !known {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				flag.Usage()
				os.Exit(2)
			}
			entries = append(entries, e)
			labels = append(labels, name)
		}
		if len(entries) == 0 {
			fmt.Fprintf(os.Stderr, "empty -exp list\n")
			flag.Usage()
			os.Exit(2)
		}
	}

	wallStart := time.Now()
	bench := map[string][]experiments.BenchMetric{}
	timed := func(name, label string, fn func() []experiments.BenchMetric) {
		start := time.Now()
		if ms := fn(); len(ms) > 0 {
			bench[name] = ms
		}
		fmt.Printf("[%s in %.1fs]\n\n", label, time.Since(start).Seconds())
	}
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			if e.InAll {
				timed(e.Name, e.Name, runners[e.Name])
			}
		}
	} else {
		// Label with the names as typed, so alias runs log as requested.
		for i, e := range entries {
			timed(e.Name, labels[i], runners[e.Name])
		}
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

// checkFlags rejects counts and durations the experiments cannot run, which
// would otherwise panic (a negative -popular slices the app mix), print an
// all-n/a report, or fall back silently to a default (-duration 0 runs the
// session default, a negative -workers one worker per CPU).
func checkFlags(apps, popular int, duration time.Duration, workers int) error {
	var popErr error
	if popular < 1 || popular > maxPopular {
		popErr = fmt.Errorf("-popular must be in 1..%d, got %d", maxPopular, popular)
	}
	return errors.Join(experiments.CheckApps(apps), popErr,
		experiments.CheckDuration(duration), experiments.CheckWorkers(workers))
}

// writeFolded writes the micro run's folded-stack flamegraph export.
func writeFolded(path string, r *experiments.MicroResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Report.WriteFolded(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
