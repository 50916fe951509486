// Command vsocsim runs one app on one emulator on one machine and prints
// the result plus the SVM framework's internal statistics — the quickest way
// to poke at the system.
//
// Usage:
//
//	vsocsim [-emulator vsoc|gae|qemu|ldplayer|bluestacks|trinity|vsoc-noprefetch|vsoc-nofence]
//	        [-machine highend|midend|pixel]
//	        [-app uhd|360|camera|ar|livestream|heavy3d|ui|social]
//	        [-duration 30s] [-seed 1] [-v] [-guests N] [-fleet] [-mon] [-monout mon.json]
//
// With -guests N the command switches to farm mode: N guest instances of
// the app run on one physical host (DESIGN.md §12), assembled and driven by
// experiments.RunFarm, the code behind `vsocbench -exp shardscale`: 2 ms
// windows, with the shared-host arbiter coupling their PCIe links at each
// window barrier (here with no aggregate cap). Per-guest results are
// deterministic per seed; the trailing events/s line measures the host.
//
// -fleet (farm mode only) attaches the fleet observability layer
// (DESIGN.md §13): it appends the per-tenant QoS/SLO fleet report and the
// window loop's wall-clock split. Observe-only — per-guest results are
// byte-identical with it on or off.
//
// -mon attaches the streaming telemetry engine (DESIGN.md §15): windowed
// virtual-time rollups, online SLO/anomaly detectors, and the incident
// flight recorder. In single mode the run is driven at window grain
// (emerging apps only); in farm mode windows seal at the window barriers.
// Observe-only like -fleet. -monout writes the machine-readable monitor
// report for cmd/vsocmon to render.
//
// A negative -guests, or -fleet without -guests, exits 2 with a usage
// error.
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
	emuName := flag.String("emulator", "vsoc", "emulator preset")
	machName := flag.String("machine", "highend", "machine preset")
	appName := flag.String("app", "uhd", "app kind (uhd, 360, camera, ar, livestream, heavy3d, ui, social)")
	flag.DurationVar(&cfg.Duration, "duration", 30*time.Second, "simulated duration")
	flag.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	verbose := flag.Bool("v", false, "print SVM internals")
	fetch := flag.Bool("fetch", false, "enable chunked, DMA-promoted demand fetches (DESIGN.md §11)")
	guests := flag.Int("guests", 0, "farm mode: run N guest instances of the app on one host (DESIGN.md §12); 0 = single instance")
	flag.BoolVar(&cfg.Fleet, "fleet", false, "farm mode: append the fleet QoS/SLO report and the window loop's wall-clock split (DESIGN.md §13)")
	flag.BoolVar(&cfg.Monitor, "mon", false, "attach the streaming telemetry engine (DESIGN.md §15): windowed rollups, online detectors, incident flight recorder")
	flag.StringVar(&cfg.MonPath, "monout", "", "write the machine-readable monitor report (for cmd/vsocmon) to this path")
	flag.Parse()
	if err := checkFlags(cfg.Duration, *guests, cfg.Fleet); err != nil {
		fmt.Fprintf(os.Stderr, "vsocsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	presetFn, ok := presetsByName[strings.ToLower(*emuName)]
	if !ok {
		die("unknown emulator %q", *emuName)
	}
	machine, ok := machinesByName[strings.ToLower(*machName)]
	if !ok {
		die("unknown machine %q", *machName)
	}

	preset := presetFn()
	if *fetch {
		preset.Fetch = hostsim.EnabledFetch()
	}
	if *guests > 0 {
		runFarm(cfg, preset, machine, strings.ToLower(*appName), *guests)
		return
	}
	if cfg.Monitor {
		runMonitoredSingle(cfg, preset, machine, strings.ToLower(*appName))
		return
	}
	sess := workload.NewSession(preset, machine.New, cfg.Seed)
	defer sess.Close()

	var r *workload.Result
	var err error
	switch strings.ToLower(*appName) {
	case "uhd":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatUHDVideo, 0, cfg.Duration))
	case "360":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.Cat360Video, 0, cfg.Duration))
	case "camera":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatCamera, 0, cfg.Duration))
	case "ar":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatAR, 0, cfg.Duration))
	case "livestream":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatLivestream, 0, cfg.Duration))
	case "heavy3d":
		r, err = workload.RunPopular(sess.Emulator, workload.PopularHeavy3D, workload.PopularSpec(workload.PopularHeavy3D, 0, cfg.Duration))
	case "ui":
		r, err = workload.RunPopular(sess.Emulator, workload.PopularUI, workload.PopularSpec(workload.PopularUI, 0, cfg.Duration))
	case "social":
		r, err = workload.RunPopular(sess.Emulator, workload.PopularSocialVideo, workload.PopularSpec(workload.PopularSocialVideo, 0, cfg.Duration))
	default:
		die("unknown app %q", *appName)
	}
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

	if *verbose {
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
}

// checkFlags rejects a non-positive -duration, which would otherwise run
// the session default (0) or fail before the app starts (negative), and the
// farm flags checkFarmFlags rejects.
func checkFlags(duration time.Duration, guests int, fleet bool) error {
	return errors.Join(experiments.CheckDuration(duration), checkFarmFlags(guests, fleet))
}

// checkFarmFlags rejects farm flags that would otherwise be silently
// ignored: a negative guest count, and -fleet outside farm mode.
func checkFarmFlags(guests int, fleet bool) error {
	switch {
	case guests < 0:
		return fmt.Errorf("-guests must be >= 0, got %d", guests)
	case fleet && guests == 0:
		return errors.New("-fleet needs farm mode (-guests N)")
	}
	return nil
}

// farmCategories maps the emerging app names onto their Table 1 category
// (the popular-app kinds drive their own environment loop and cannot join a
// shard group).
var farmCategories = map[string]int{
	"uhd":        emulator.CatUHDVideo,
	"360":        emulator.Cat360Video,
	"camera":     emulator.CatCamera,
	"ar":         emulator.CatAR,
	"livestream": emulator.CatLivestream,
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

// runMonitoredSingle runs one guest with the streaming telemetry engine
// attached, driving the simulation at window grain so rollups seal as
// virtual time passes each boundary. Emerging apps only: the popular-app
// kinds drive their own environment loop.
func runMonitoredSingle(cfg experiments.Config, preset emulator.Preset, machine experiments.MachineSpec, app string) {
	cat, ok := farmCategories[app]
	if !ok {
		die("-mon supports the emerging apps only (uhd, 360, camera, ar, livestream)")
	}
	sess := workload.NewSession(preset, machine.New, cfg.Seed)
	defer sess.Close()
	mon := tsmon.New(tsmon.Config{Tenants: []tsmon.TenantConfig{experiments.FarmTenant("g0:"+app, cat)}})
	experiments.WireGuest(sess, 0, nil, mon)
	pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, 0, cfg.Duration))
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
	mon.Finalize(pd.Stop())
	printMonitor(mon.Report(), cfg.MonPath)
}

// runFarm runs n guest instances of the app as a farm, guest g seeded
// seed+g*1000003.
func runFarm(cfg experiments.Config, preset emulator.Preset, machine experiments.MachineSpec, app string, n int) {
	cat, ok := farmCategories[app]
	if !ok {
		die("-guests farm mode supports the emerging apps only (uhd, 360, camera, ar, livestream)")
	}
	guests := make([]experiments.FarmGuest, n)
	for g := range guests {
		name := fmt.Sprintf("g%d:%s", g, app)
		guests[g] = experiments.FarmGuest{Cat: cat, Tenant: experiments.FarmTenant(name, cat), Seed: cfg.Seed + int64(g)*1000003}
	}
	run, err := experiments.RunFarm(cfg, preset, machine, guests, 0)
	if err != nil {
		die("%v", err)
	}
	for g, r := range run.Results {
		fmt.Printf("guest %d: %v\n", g, r)
	}
	fmt.Printf("farm: %d guests, window %v, %d events in %.2fs wall (%.0f events/s)\n",
		n, run.Lookahead, run.Events, run.Wall.Seconds(), run.EventsPerSec())
	if run.Fleet != nil {
		fmt.Println()
		fmt.Print(run.Fleet.FormatText())
		fmt.Println()
		fmt.Print(run.Stall.FormatText())
	}
	if run.Mon != nil {
		printMonitor(run.Mon, cfg.MonPath)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
