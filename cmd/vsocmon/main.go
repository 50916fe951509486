// Command vsocmon renders machine-readable monitor reports written by the
// streaming telemetry engine (internal/tsmon, DESIGN.md §15) — the files
// `vsocbench -monout`, `vsocsim -monout`, and the shardscale farm produce.
//
// Usage:
//
//	vsocmon [-signal fps] [-tenant 0] [-width 64] [-incidents]
//	        [-digest] [-min-incidents N] report.json...
//
// With no flags it prints each report's one-screen summary: the run
// header, per-tenant aggregates, and the incident timeline. -signal adds
// an ASCII chart of one signal (a built-in name like fps, m2p_viol_frac,
// fetch_mean_ms, or "probe:<name>") across the retained windows for
// -tenant. -incidents appends each incident's context series.
//
// A negative -tenant or a -width below 8 exits 2 with usage before any
// report is read. A tenant or signal a report lacks is an error naming
// that report (exit 1); a known signal with no samples in the retained
// windows prints "(no samples)".
//
// The scripting flags make vsocmon a CI gate: -digest prints only each
// report's digest (one per line), and -min-incidents N exits non-zero
// unless every report carries at least N incidents — `make mon-smoke`
// uses both to assert the phased-load scenario still fires its detectors
// and that equal seeds still produce byte-identical reports.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/tsmon"
)

func main() {
	signal := flag.String("signal", "", "chart this signal across the retained windows (built-in name or probe:<name>)")
	tenant := flag.Int("tenant", 0, "tenant index for -signal")
	width := flag.Int("width", 64, "chart width in characters")
	incidents := flag.Bool("incidents", false, "append each incident's context series")
	digest := flag.Bool("digest", false, "print only each report's digest")
	minIncidents := flag.Int("min-incidents", -1, "exit non-zero unless every report has at least this many incidents")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: vsocmon [flags] report.json...")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := checkFlags(*tenant, *width, flag.NArg()); err != nil {
		fmt.Fprintf(os.Stderr, "vsocmon: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	fail := false
	for _, path := range flag.Args() {
		r, err := tsmon.ReadReport(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsocmon: %v\n", err)
			os.Exit(1)
		}
		if *digest {
			fmt.Println(r.Digest)
		} else {
			if flag.NArg() > 1 {
				fmt.Printf("== %s ==\n", path)
			}
			fmt.Print(r.FormatText())
			if *signal != "" {
				chart, err := renderSeries(r, *tenant, *signal, *width)
				if err != nil {
					fmt.Fprintf(os.Stderr, "vsocmon: %s: %v\n", path, err)
					os.Exit(1)
				}
				fmt.Print(chart)
			}
			if *incidents {
				fmt.Print(renderIncidents(r, *width))
			}
		}
		if *minIncidents >= 0 && len(r.Incidents) < *minIncidents {
			fmt.Fprintf(os.Stderr, "vsocmon: %s: %d incident(s), want >= %d\n",
				path, len(r.Incidents), *minIncidents)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}

// minWidth is the narrowest chart -width draws.
const minWidth = 8

// checkFlags rejects, before any report is read, a negative -tenant, a
// -width below minWidth, and a command line naming no report.
func checkFlags(tenant, width, reports int) error {
	var errs []error
	if reports == 0 {
		errs = append(errs, errors.New("no report given"))
	}
	if tenant < 0 {
		errs = append(errs, fmt.Errorf("-tenant must be >= 0, got %d", tenant))
	}
	if width < minWidth {
		errs = append(errs, fmt.Errorf("-width must be >= %d, got %d", minWidth, width))
	}
	return errors.Join(errs...)
}

// renderSeries charts one tenant signal across the retained windows as a
// fixed-width ASCII column chart (one row per bucket of windows). A tenant
// or signal the report lacks is an error.
func renderSeries(r *tsmon.MonReport, tenant int, signal string, width int) (string, error) {
	pts, err := r.SignalSeries(tenant, signal)
	if err != nil {
		return "", err
	}
	if len(pts) == 0 {
		return fmt.Sprintf("\n  (no %q samples for tenant %d)\n", signal, tenant), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n  %s %s over windows %d..%d:\n",
		r.Tenants[tenant].Name, signal, pts[0].Window, pts[len(pts)-1].Window)
	b.WriteString(sparkline(pts, width))
	return b.String(), nil
}

// renderIncidents prints each incident's context series as its own chart.
func renderIncidents(r *tsmon.MonReport, width int) string {
	var b strings.Builder
	for i := range r.Incidents {
		inc := &r.Incidents[i]
		fmt.Fprintf(&b, "\n  incident %d: %s (%s) on %s, %s=%.3f vs %.3f at %.0fms",
			inc.Seq, inc.Detector, inc.Class, inc.Tenant, inc.Signal, inc.Value, inc.Bound, inc.AtMS)
		if inc.Dominant != "" {
			fmt.Fprintf(&b, ", dominant=%s", inc.Dominant)
		}
		b.WriteString("\n")
		if len(inc.ActiveFaults) > 0 {
			fmt.Fprintf(&b, "    faults: %s\n", strings.Join(inc.ActiveFaults, ", "))
		}
		if len(inc.Series) > 0 {
			b.WriteString(sparkline(inc.Series, width))
		}
	}
	return b.String()
}

// sparkline renders points as a left-to-right bar chart scaled into width
// columns, with the value range labelled.
func sparkline(pts []tsmon.SeriesPoint, width int) string {
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		if p.Value < lo {
			lo = p.Value
		}
		if p.Value > hi {
			hi = p.Value
		}
	}
	// Downsample to at most `width` columns, keeping each bucket's max so
	// spikes stay visible.
	cols := len(pts)
	if cols > width {
		cols = width
	}
	levels := []byte(" .:-=+*#%@")
	var b strings.Builder
	fmt.Fprintf(&b, "    [%.3f .. %.3f]\n    ", lo, hi)
	for c := 0; c < cols; c++ {
		start, end := c*len(pts)/cols, (c+1)*len(pts)/cols
		v := pts[start].Value
		for _, p := range pts[start:end] {
			if p.Value > v {
				v = p.Value
			}
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(levels)-1))
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteByte(levels[idx])
	}
	b.WriteString("\n")
	return b.String()
}
