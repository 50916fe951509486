// Package experiments regenerates every table and figure of the paper's
// measurement study (§2.3) and evaluation (§5): the workload taxonomy
// (Table 1), the SVM microbenchmarks (Table 2), the FPS and motion-to-photon
// comparisons across six emulators and two machines (Figs. 10-15), the
// ablation breakdowns (Fig. 12, §5.5), the write-invalidate access-latency
// CDF (Fig. 16), and the shared-memory characterization CDFs (Figs. 4-6).
//
// Each experiment is a pure function of a Config, deterministic for a given
// seed. The registry (Registry) describes every experiment once: how to run
// it, print it and project it onto bench metrics. cmd/vsocbench and
// bench_test.go loop over it.
package experiments

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
)

// Config scales an experiment run.
type Config struct {
	// Duration is the per-app simulated run length. The paper uses 5
	// minutes; 30 s is statistically equivalent for everything except the
	// laptop thermal effects, which need >= 90 s to manifest.
	Duration time.Duration
	// AppsPerCategory is how many of each category's 10 apps to simulate.
	AppsPerCategory int
	// PopularApps is how many of the top-25 popular apps to simulate.
	PopularApps int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds how many app sessions the Run* drivers simulate
	// concurrently. 0 means one worker per CPU (GOMAXPROCS); 1 forces the
	// serial path.
	// Results are identical for every setting — sessions are independent
	// simulations merged in a fixed order — so Workers only trades
	// wall-clock time for cores.
	Workers int
	// TracePath enables virtual-time span tracing for the experiments that
	// support it. The robustness sweep writes one Chrome/Perfetto JSON file
	// per (emulator, fault) cell, derived from this path; the overhead run
	// writes exactly this path. Empty disables tracing: runs are then
	// byte-identical to a build without the observability layer.
	TracePath string
	// Metrics enables the metrics registry; supporting experiments append a
	// plain-text dump of counters, gauges, and histograms to their report.
	Metrics bool
	// ProfilePath, for experiments that support the critical-path profiler
	// (fig16), is where the folded-stack flamegraph export is written.
	// Empty disables the export; the profiler itself runs whenever the
	// experiment asks for it and never perturbs simulation results.
	ProfilePath string
	// Fetch enables chunked, DMA-promoted demand fetches (DESIGN.md §11)
	// for the experiments that support it (fig16). Off by default so
	// every experiment's output matches the pre-chunking emulator byte for
	// byte; the tuner's fetch.* knobs vary the chunk settings themselves.
	Fetch bool
	// MonPath, when set, is where the monitored runs (the farm scenarios)
	// write the machine-readable monitor report (cmd/vsocmon renders it).
	MonPath string
}

// BindFlags binds the flags vsocbench and vsocsim share to c's fields on
// fs: -duration, -seed, -fetch and -monout. Each command rejects the ones
// its selected runs do not honour.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.DurationVar(&c.Duration, "duration", 30*time.Second, "simulated duration per app")
	fs.Int64Var(&c.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&c.Fetch, "fetch", false, "enable chunked, DMA-promoted demand fetches (DESIGN.md §11)")
	fs.StringVar(&c.MonPath, "monout", "", "write the machine-readable monitor report (for cmd/vsocmon) to this path")
}

// The flag rules below are shared by the commands, so a count or duration
// the experiments cannot run is a usage error everywhere: never a panic, an
// all-zero report or a silent fallback to a default.

// MaxApps is the size of each Table 1 category, the ceiling of -apps.
const MaxApps = 10

// CheckApps rejects an apps-per-category count outside 1..MaxApps.
func CheckApps(apps int) error {
	if apps < 1 || apps > MaxApps {
		return fmt.Errorf("-apps must be in 1..%d, got %d", MaxApps, apps)
	}
	return nil
}

// CheckDuration rejects a non-positive simulated duration, which sessions
// would otherwise replace with their default or never start an app in.
func CheckDuration(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-duration must be > 0, got %v", d)
	}
	return nil
}

// CheckWorkers rejects a negative worker count (0 means one per CPU).
func CheckWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = one per CPU), got %d", workers)
	}
	return nil
}

// MachineSpec names a machine preset.
type MachineSpec struct {
	Name string
	New  func(*sim.Env) *hostsim.Machine
}

// HighEnd and MidEnd are the two testbeds of §5.1; Pixel is the physical
// device of the §2.3 measurement study.
var (
	HighEnd = MachineSpec{Name: "high-end desktop", New: hostsim.HighEndDesktop}
	MidEnd  = MachineSpec{Name: "middle-end laptop", New: hostsim.MidEndLaptop}
	Pixel   = MachineSpec{Name: "pixel-6a", New: hostsim.Pixel6a}
)

// appSeed derives a per-run seed so each (emulator, category, app) tuple is
// independent but reproducible.
func appSeed(base int64, emuIdx, category, app int) int64 {
	return base + int64(emuIdx)*10007 + int64(category)*101 + int64(app)*13 + 1
}
