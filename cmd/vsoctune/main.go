// Command vsoctune searches the emulator's chunked demand-fetch
// configuration (DESIGN.md §14): the chunk size, DMA promotion threshold
// and pipeline depth. For each selected preset it runs the internal/tune
// search — 49 distinct fetch configs, each measured by the Fig. 16
// experiment in one batch; of those whose fig16 bench report regresses no
// metric of the shipped default's past vsocperf's default threshold, the
// lowest demand-fetch mean wins — and prints the best config with a
// baseline-vs-best metric table.
//
// Usage:
//
//	vsoctune [-preset vsoc|vsoc-noprefetch|both] [-seed 1]
//	         [-duration 6s] [-apps 2] [-workers 0] [-out prefix] [-v]
//
// -out writes a before/after fig16 bench-report pair per preset —
// <prefix>-<preset>-default.json and <prefix>-<preset>-best.json — for
// cmd/vsocperf to diff as evidence that the best config improves the
// objective without regressing any metric. vsoc-noprefetch's default
// report is the one vsocbench -exp fig16 -json writes at the same
// -duration, -apps and -seed. The search's feasibility test is that same
// gate, so default -> best passes by construction:
//
//	vsoctune -preset vsoc-noprefetch -out /tmp/tune
//	vsocperf /tmp/tune-vsoc-noprefetch-default.json \
//	         /tmp/tune-vsoc-noprefetch-best.json
//
// -seed is the simulation seed. Equal flags reproduce the identical
// candidate trace, best config, and reports byte for byte at every -workers
// setting; -v prints the full per-candidate trace.
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
	preset := flag.String("preset", "both", "preset to tune: vsoc, vsoc-noprefetch, or both")
	seed := flag.Int64("seed", 1, "simulation seed")
	duration := flag.Duration("duration", 6*time.Second, "simulated duration per app session")
	apps := flag.Int("apps", 2, "apps per video category in the evaluation probe")
	workers := flag.Int("workers", 0, "concurrent evaluations (0 = one per CPU, 1 = serial)")
	out := flag.String("out", "", "write <out>-<preset>-default.json and <out>-<preset>-best.json bench reports")
	verbose := flag.Bool("v", false, "print the full per-candidate search trace")
	flag.Parse()
	presets, err := checkFlags(*preset, *apps, *duration, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsoctune: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{
		Duration:        *duration,
		AppsPerCategory: *apps,
		Seed:            *seed,
		Workers:         *workers,
	}

	wallStart := time.Now()
	for _, p := range presets {
		start := time.Now()
		res := tune.Run(cfg, p)
		if *verbose {
			fmt.Printf("Search trace (%s):\n%s\n", p.Name, res.FormatTrace())
		}
		fmt.Print(res.FormatResult())
		fmt.Printf("[%s tuned in %.1fs]\n\n", p.Name, time.Since(start).Seconds())
		if *out != "" {
			slug := strings.ToLower(p.Name)
			for _, w := range []struct {
				rep  *experiments.Report
				path string
			}{
				{res.Baseline, fmt.Sprintf("%s-%s-default.json", *out, slug)},
				{res.Best, fmt.Sprintf("%s-%s-best.json", *out, slug)},
			} {
				if err := w.rep.WriteJSONFile(w.path); err != nil {
					fmt.Fprintf(os.Stderr, "vsoctune: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("[bench report written to %s]\n", w.path)
			}
		}
	}
	fmt.Printf("[total %.1fs, %d workers]\n", time.Since(wallStart).Seconds(), cfg.EffectiveWorkers())
}

// checkFlags resolves -preset (case-insensitively) to the presets it tunes,
// in tuning order, and rejects an unknown one and the experiments' bad
// counts and durations (a negative -apps panics the evaluation probe).
func checkFlags(preset string, apps int, duration time.Duration, workers int) ([]emulator.Preset, error) {
	var presets []emulator.Preset
	var presetErr error
	switch strings.ToLower(preset) {
	case "vsoc":
		presets = []emulator.Preset{emulator.VSoC()}
	case "vsoc-noprefetch":
		presets = []emulator.Preset{emulator.VSoCNoPrefetch()}
	case "both":
		presets = []emulator.Preset{emulator.VSoCNoPrefetch(), emulator.VSoC()}
	default:
		presetErr = fmt.Errorf("unknown -preset %q (want vsoc, vsoc-noprefetch, or both)", preset)
	}
	if err := errors.Join(presetErr, experiments.CheckApps(apps), experiments.CheckDuration(duration), experiments.CheckWorkers(workers)); err != nil {
		return nil, err
	}
	return presets, nil
}
