// Command vsocperf diffs two machine-readable bench reports written by
// `vsocbench -json` and flags regressions, so CI can track the benchmark
// trajectory across commits instead of eyeballing report text.
//
// Usage:
//
//	vsocperf [-threshold 0.05] [-metric name=frac ...] old.json new.json
//
// Each metric declares its own regression direction ("lower" or "higher"
// is better); a change past the threshold in the bad direction is a
// regression and makes vsocperf exit 1. The rule is experiments.Judge,
// which the config search (cmd/vsoctune) also applies at the default
// threshold to decide which candidates are feasible. The default applies to
// every metric; -metric overrides it per metric name and may repeat.
// A threshold is a non-negative fraction: a negative or NaN -threshold
// exits 2 with usage, as -metric rejects one. A -metric naming a metric
// neither report holds also exits 2, so a stale override cannot pass
// unnoticed.
// A metric the old report holds and the new one lacks is a dropped metric
// and also makes vsocperf exit 1: a gate cannot pass on a measurement that
// disappeared. Metrics only the new report holds are listed but never fail
// the run (the trajectory is allowed to grow).
//
// The diff is deterministic: reports are compared metric-by-metric in
// name order, the same order `vsocbench -json` writes them in.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// thresholds maps metric names to per-metric relative thresholds, falling
// back to the default for unlisted names. It implements flag.Value so
// -metric may repeat.
type thresholds struct {
	def float64
	per map[string]float64
}

func (t *thresholds) String() string { return fmt.Sprintf("%v", t.per) }

func (t *thresholds) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=frac, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err == nil {
		err = checkThreshold(f)
	}
	if err != nil {
		return fmt.Errorf("bad threshold in %q: %v", s, err)
	}
	if t.per == nil {
		t.per = map[string]float64{}
	}
	t.per[name] = f
	return nil
}

// checkThreshold rejects a threshold that would misjudge every change: a
// negative one flags improvements as regressions, and NaN passes
// everything.
func checkThreshold(f float64) error {
	if !(f >= 0) {
		return fmt.Errorf("threshold must be a fraction >= 0, got %v", f)
	}
	return nil
}

func (t *thresholds) for_(name string) float64 {
	if f, ok := t.per[name]; ok {
		return f
	}
	return t.def
}

func main() {
	th := &thresholds{}
	flag.Float64Var(&th.def, "threshold", experiments.DefaultThreshold, "default relative change flagged as a regression")
	flag.Var(th, "metric", "per-metric threshold override, name=frac (repeatable)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: %s [flags] old.json new.json\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := checkThreshold(th.def); err != nil {
		fmt.Fprintf(os.Stderr, "vsocperf: -threshold: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldRep, err := experiments.ReadBenchReportFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsocperf: %v\n", err)
		os.Exit(2)
	}
	newRep, err := experiments.ReadBenchReportFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsocperf: %v\n", err)
		os.Exit(2)
	}
	if err := checkOverrides(th, oldRep, newRep); err != nil {
		fmt.Fprintf(os.Stderr, "vsocperf: %v\n", err)
		os.Exit(2)
	}
	if failures := diff(os.Stdout, oldRep, newRep, th); failures > 0 {
		fmt.Printf("FAIL: %d regressed or dropped metric(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("OK: no regressions")
}

// checkOverrides rejects each -metric override that names a metric
// neither report holds.
func checkOverrides(th *thresholds, oldRep, newRep *experiments.Report) error {
	var names []string
	for name := range th.per {
		_, inOld := oldRep.Lookup(name)
		_, inNew := newRep.Lookup(name)
		if !inOld && !inNew {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	return fmt.Errorf("-metric %s: no such metric in either report", strings.Join(names, ", "))
}

// diff prints the metric-by-metric comparison and returns how many metrics
// regressed past their threshold or are missing from the new report.
func diff(w *os.File, oldRep, newRep *experiments.Report, th *thresholds) int {
	failures := 0
	fmt.Fprintf(w, "%-40s %14s %14s %9s  %s\n", "metric", "old", "new", "change", "verdict")
	for _, nm := range newRep.Metrics {
		om, ok := oldRep.Lookup(nm.Name)
		if !ok {
			fmt.Fprintf(w, "%-40s %14s %14.6g %9s  new metric\n", nm.Name, "-", nm.Value, "-")
			continue
		}
		rel, verdict := experiments.Judge(om, nm, th.for_(nm.Name))
		if verdict == "REGRESSION" {
			failures++
		}
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %+8.2f%%  %s\n", nm.Name, om.Value, nm.Value, 100*rel, verdict)
	}
	for _, om := range oldRep.Metrics {
		if _, ok := newRep.Lookup(om.Name); !ok {
			fmt.Fprintf(w, "%-40s %14.6g %14s %9s  DROPPED\n", om.Name, om.Value, "-", "-")
			failures++
		}
	}
	return failures
}
