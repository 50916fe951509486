// Command vsocsim runs one app on one emulator on one machine and prints
// the result plus the SVM framework's internal statistics — the quickest way
// to poke at the system.
//
// Usage:
//
//	vsocsim [-emulator vsoc|gae|qemu|ldplayer|bluestacks|trinity|vsoc-noprefetch|vsoc-nofence|native]
//	        [-machine highend|midend|pixel]
//	        [-app uhd|360|camera|ar|livestream|heavy3d|ui|social]
//	        [-duration 30s] [-seed 1] [-fetch] [-v] [-guests N]
//	        [-monout mon.json]
//
// Every app, emerging or popular, starts through workload.StartEmerging, so
// each takes every flag. With -guests N the command switches to farm mode:
// N guest instances of the app run on one physical host (DESIGN.md §12),
// assembled and driven by experiments.RunFarm, the code behind `vsocbench
// -exp shardscale`: 2 ms windows, with the shared-host arbiter coupling
// their PCIe links at each window barrier (here with no aggregate cap).
// Per-guest results are deterministic per seed; the trailing events/s line
// measures the host.
//
// Every run carries the streaming telemetry engine (DESIGN.md §15):
// windowed virtual-time rollups, online SLO/anomaly detectors, and the
// incident flight recorder. A single run is driven at window grain; a farm
// seals its windows at the window barriers and also carries the fleet
// observability layer (§13), whose per-tenant QoS/SLO report and window
// loop wall-clock split precede the monitor report. Both layers only
// observe. -monout writes the machine-readable monitor report for
// cmd/vsocmon to render.
//
// Names resolve case-insensitively. An unknown -emulator, -machine or -app
// name (the error lists the valid ones, as the usage does), a non-positive
// -duration, a negative -guests, or -v with -guests (a farm has no single
// session to print) exits 2 with a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/hostsim"
	"repro/internal/tsmon"
	"repro/internal/workload"
)

var presetsByName = map[string]func() emulator.Preset{
	"vsoc":            emulator.VSoC,
	"gae":             emulator.GAE,
	"qemu":            emulator.QEMUKVM,
	"ldplayer":        emulator.LDPlayer,
	"bluestacks":      emulator.Bluestacks,
	"trinity":         emulator.Trinity,
	"vsoc-noprefetch": emulator.VSoCNoPrefetch,
	"vsoc-nofence":    emulator.VSoCNoFence,
	"native":          emulator.NativeDevice,
}

var machinesByName = map[string]experiments.MachineSpec{
	"highend": experiments.HighEnd,
	"midend":  experiments.MidEnd,
	"pixel":   experiments.Pixel,
}

func main() {
	var cfg experiments.Config
	cfg.BindFlags(flag.CommandLine)
	emuName, machName, appName := bindNames(flag.CommandLine)
	verbose := flag.Bool("v", false, "print SVM internals")
	guests := flag.Int("guests", 0, "farm mode: run N guest instances of the app on one host (DESIGN.md §12); 0 = single instance")
	flag.Parse()
	t, err := checkFlags(cfg, *emuName, *machName, *appName, *guests, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsocsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if cfg.Fetch {
		t.preset.Fetch = hostsim.EnabledFetch()
	}
	if *guests > 0 {
		runFarm(cfg, t, *guests)
		return
	}
	runSingle(cfg, t, *verbose)
}

// target is what the -emulator, -machine and -app names resolve to.
type target struct {
	preset  emulator.Preset
	machine experiments.MachineSpec
	app     string // the -app name, lower-cased
	spec    func(app int, d time.Duration) workload.Spec
}

// appSpecs maps each -app name to the spec of its app number app: the
// five Table 1 categories and the three popular-app kinds.
var appSpecs = map[string]func(app int, d time.Duration) workload.Spec{
	"uhd":        emerging(emulator.CatUHDVideo),
	"360":        emerging(emulator.Cat360Video),
	"camera":     emerging(emulator.CatCamera),
	"ar":         emerging(emulator.CatAR),
	"livestream": emerging(emulator.CatLivestream),
	"heavy3d":    popular(workload.PopularHeavy3D),
	"ui":         popular(workload.PopularUI),
	"social":     popular(workload.PopularSocialVideo),
}

func emerging(cat int) func(int, time.Duration) workload.Spec {
	return func(app int, d time.Duration) workload.Spec { return workload.DefaultSpec(cat, app, d) }
}

func popular(kind workload.PopularKind) func(int, time.Duration) workload.Spec {
	return func(app int, d time.Duration) workload.Spec { return workload.PopularSpec(kind, app, d) }
}

// runSingle runs one app and prints its result, then with -v the SVM
// framework's internals, then the monitor report. The monitor seals its
// windows as the run passes each boundary.
func runSingle(cfg experiments.Config, t target, verbose bool) {
	spec := t.spec(0, cfg.Duration)
	sess := workload.NewSession(t.preset, t.machine.New, cfg.Seed)
	defer sess.Close()
	mon := tsmon.New(tsmon.Config{Tenants: []tsmon.TenantConfig{experiments.FarmTenant("g0:"+t.app, spec.Category)}})
	experiments.WireGuest(sess, 0, nil, mon)
	pd, err := workload.StartEmerging(sess.Emulator, spec)
	if err != nil {
		die("run failed: %v", err)
	}
	sess.Env.RunUntilEvery(pd.Stop(), tsmon.WindowWidth, mon.Seal)
	r, err := pd.Wait()
	if err != nil {
		die("run failed: %v", err)
	}

	fmt.Println(r)
	fmt.Printf("frames=%d drops=%d (stale %d, deadline %d)\n",
		r.Frames, r.Drops, r.StaleDrops, r.DeadlineDrops)
	if r.Latency.Count() > 0 {
		fmt.Printf("motion-to-photon: mean %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
			r.Latency.Mean(), r.Latency.Percentile(95), r.Latency.Percentile(99))
	}

	if verbose {
		st := sess.SVMStats()
		fmt.Printf("\nSVM framework (%s protocol):\n", sess.Emulator.Manager.Kind())
		fmt.Printf("  accesses            %d (%d writes, %d reads)\n", st.Accesses, st.Writes, st.Reads)
		fmt.Printf("  HAL access latency  %.2f ms mean\n", st.HALAccessLatency.Mean())
		fmt.Printf("  all access latency  %.2f ms mean, %.2f p99\n",
			st.AccessLatency.Mean(), st.AccessLatency.Percentile(99))
		fmt.Printf("  coherence           %.2f ms mean over %d copies (host-direct %.0f%%)\n",
			st.CoherenceCost.Mean(), st.CoherenceCost.Count(), st.DirectShare()*100)
		fmt.Printf("  prefetch            %d hits, %d waits, %d demand fetches\n",
			st.PrefetchHits, st.PrefetchWaits, st.DemandFetches)
		if st.ChunkedFetches > 0 {
			fmt.Printf("  chunked fetches     %d (%d reader joins)\n",
				st.ChunkedFetches, st.FetchJoins)
		}
		fmt.Printf("  prediction          %.1f%% over %d\n", st.PredictionAccuracy()*100, st.PredTotal)
		fmt.Printf("  slack intervals     %.1f ms mean over %d\n",
			st.SlackIntervals.Mean(), st.SlackIntervals.Count())
		fmt.Printf("  bytes               %d MiB accessed, %d MiB coherence, %d MiB wasted\n",
			st.BytesAccessed>>20, st.BytesCoherence>>20, st.BytesWasted>>20)
		fmt.Printf("  throughput          %.2f GB/s\n", st.Throughput(cfg.Duration)/1e9)
		fmt.Printf("  fence table         peak %d/%d slots, %d allocs, %d recycles\n",
			sess.Emulator.Fences.Peak(), sess.Emulator.Fences.Capacity(),
			sess.Emulator.Fences.Allocs(), sess.Emulator.Fences.Recycles())
		if th := sess.Machine.Thermal; th != nil {
			fmt.Printf("  thermal             %.0f C, throttled=%v\n", th.Temperature(), th.Throttled())
		}
	}
	mon.Finalize(pd.Stop())
	printMonitor(mon.Report(), cfg.MonPath)
}

// checkFlags resolves the -emulator, -machine and -app names
// (case-insensitively) and rejects an unknown one, a non-positive
// -duration, which would otherwise run the session default (0) or fail
// before the app starts (negative), and the farm flags checkFarmFlags
// rejects.
func checkFlags(cfg experiments.Config, emuName, machName, appName string, guests int, verbose bool) (target, error) {
	presetFn, emuErr := lookup(presetsByName, "-emulator", emuName)
	machine, machErr := lookup(machinesByName, "-machine", machName)
	spec, appErr := lookup(appSpecs, "-app", appName)
	err := errors.Join(emuErr, machErr, appErr, experiments.CheckDuration(cfg.Duration), checkFarmFlags(guests, verbose))
	if err != nil {
		return target{}, err
	}
	return target{preset: presetFn(), machine: machine, app: strings.ToLower(appName), spec: spec}, nil
}

// bindNames binds the -emulator, -machine and -app flags to fs; each usage
// string lists the names of the flag's table.
func bindNames(fs *flag.FlagSet) (emu, machine, app *string) {
	emu = fs.String("emulator", "vsoc", "emulator preset: one of "+names(presetsByName))
	machine = fs.String("machine", "highend", "machine preset: one of "+names(machinesByName))
	app = fs.String("app", "uhd", "app kind: one of "+names(appSpecs))
	return emu, machine, app
}

// names lists a name flag's table in sorted order.
func names[V any](table map[string]V) string {
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// lookup resolves the value of a name flag in the flag's table.
func lookup[V any](table map[string]V, flag, name string) (V, error) {
	v, ok := table[strings.ToLower(name)]
	if !ok {
		return v, fmt.Errorf("unknown %s %q (want one of %s)", flag, name, names(table))
	}
	return v, nil
}

// checkFarmFlags rejects flags that farm mode would otherwise silently
// ignore or lack: a negative guest count, and -v (one session's SVM
// internals) in farm mode.
func checkFarmFlags(guests int, verbose bool) error {
	switch {
	case guests < 0:
		return fmt.Errorf("-guests must be >= 0, got %d", guests)
	case verbose && guests > 0:
		return errors.New("-v prints a single run's SVM internals; farm mode (-guests N) has none")
	}
	return nil
}

// printMonitor prints the monitor report, and writes its machine-readable
// file when path is set.
func printMonitor(rep *tsmon.MonReport, path string) {
	fmt.Println()
	fmt.Print(rep.FormatText())
	if path != "" {
		if err := rep.WriteJSONFile(path); err != nil {
			die("write monitor report: %v", err)
		}
		fmt.Printf("monitor report written to %s\n", path)
	}
}

// runFarm runs n guest instances of the app as a farm, guest g running app
// number g seeded seed+g*1000003.
func runFarm(cfg experiments.Config, t target, n int) {
	guests := make([]experiments.FarmGuest, n)
	for g := range guests {
		spec := t.spec(g, cfg.Duration)
		name := fmt.Sprintf("g%d:%s", g, t.app)
		guests[g] = experiments.FarmGuest{Spec: spec, Tenant: experiments.FarmTenant(name, spec.Category), Seed: cfg.Seed + int64(g)*1000003}
	}
	run, err := experiments.RunFarm(cfg, t.preset, t.machine, guests, 0)
	if err != nil {
		die("%v", err)
	}
	for g, r := range run.Results {
		fmt.Printf("guest %d: %v\n", g, r)
	}
	fmt.Printf("farm: %d guests, window %v, %d events in %.2fs wall (%.0f events/s)\n",
		n, run.Lookahead, run.Events, run.Wall.Seconds(), run.EventsPerSec())
	fmt.Println()
	fmt.Print(run.Fleet.FormatText())
	fmt.Println()
	fmt.Print(run.Stall.FormatText())
	printMonitor(run.Mon, cfg.MonPath)
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
