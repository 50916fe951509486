// Package experiments regenerates every table and figure of the paper's
// measurement study (§2.3) and evaluation (§5): the workload taxonomy
// (Table 1), the SVM microbenchmarks (Table 2), the FPS and motion-to-photon
// comparisons across six emulators and two machines (Figs. 10-15), the
// ablation breakdowns (Fig. 12, §5.5), the write-invalidate access-latency
// CDF (Fig. 16), and the shared-memory characterization CDFs (Figs. 4-6).
//
// Each experiment is a pure function of a Config, deterministic for a given
// seed, returning printable result structures. cmd/vsocbench formats them;
// bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/emulator"
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
	// serial path, as does setting VSOC_SERIAL=1 in the environment.
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
	// (micro), is where the folded-stack flamegraph export is written.
	// Empty disables the export; the profiler itself runs whenever the
	// experiment asks for it and never perturbs simulation results.
	ProfilePath string
	// Fetch enables chunked, DMA-promoted demand fetches (DESIGN.md §11)
	// for the experiments that support it (micro, fig16). Off by default so
	// every experiment's output matches the pre-chunking emulator byte for
	// byte; the fetchpipe sweep varies the knobs itself.
	Fetch bool
	// Fleet enables the fleet observability layer (DESIGN.md §13) for the
	// shardscale farm: per-tenant QoS/SLO tracking, the deterministic fleet
	// report, and the wall-clock split of the window loop. Observe-only —
	// simulation results are byte-identical with it on or off; off by
	// default so the report stays comparable with pre-fleetobs builds.
	Fleet bool
	// Monitor enables the streaming telemetry engine (internal/tsmon,
	// DESIGN.md §15) for the experiments that support it: windowed
	// rollups, online detectors, and the incident flight recorder.
	// Observe-only — simulation results are byte-identical with it on or
	// off. The phasedload scenario monitors unconditionally (monitoring is
	// its subject); the shardscale farm monitors when this is set.
	Monitor bool
	// MonPath, when set, is where supporting experiments write the
	// machine-readable monitor report (cmd/vsocmon renders it).
	MonPath string
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

// presets returns vSoC + the five baselines.
func presets() []emulator.Preset { return emulator.All() }
