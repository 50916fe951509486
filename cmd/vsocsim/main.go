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
// the app run on one physical host (DESIGN.md §12), in 2 ms windows with
// the shared-host arbiter coupling their PCIe links at each window
// barrier. Per-guest results are deterministic per seed; the trailing
// events/s line measures the host.
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
	"repro/internal/fleetobs"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
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
	emuName := flag.String("emulator", "vsoc", "emulator preset")
	machName := flag.String("machine", "highend", "machine preset")
	appName := flag.String("app", "uhd", "app kind (uhd, 360, camera, ar, livestream, heavy3d, ui, social)")
	duration := flag.Duration("duration", 30*time.Second, "simulated duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	verbose := flag.Bool("v", false, "print SVM internals")
	fetch := flag.Bool("fetch", false, "enable chunked, DMA-promoted demand fetches (DESIGN.md §11)")
	guests := flag.Int("guests", 0, "farm mode: run N guest instances of the app on one host (DESIGN.md §12); 0 = single instance")
	fleet := flag.Bool("fleet", false, "farm mode: append the fleet QoS/SLO report and the window loop's wall-clock split (DESIGN.md §13)")
	mon := flag.Bool("mon", false, "attach the streaming telemetry engine (DESIGN.md §15): windowed rollups, online detectors, incident flight recorder")
	monOut := flag.String("monout", "", "write the machine-readable monitor report (for cmd/vsocmon) to this path")
	flag.Parse()
	if err := checkFlags(*duration, *guests, *fleet); err != nil {
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
		runFarm(preset, machine, strings.ToLower(*appName), *duration, *seed, *guests, *fleet, *mon, *monOut)
		return
	}
	if *mon {
		runMonitoredSingle(preset, machine, strings.ToLower(*appName), *duration, *seed, *monOut)
		return
	}
	sess := workload.NewSession(preset, machine.New, *seed)
	defer sess.Close()

	var r *workload.Result
	var err error
	switch strings.ToLower(*appName) {
	case "uhd":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatUHDVideo, 0, *duration))
	case "360":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.Cat360Video, 0, *duration))
	case "camera":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatCamera, 0, *duration))
	case "ar":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatAR, 0, *duration))
	case "livestream":
		r, err = workload.RunEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatLivestream, 0, *duration))
	case "heavy3d":
		r, err = workload.RunPopular(sess.Emulator, workload.PopularHeavy3D, workload.PopularSpec(workload.PopularHeavy3D, 0, *duration))
	case "ui":
		r, err = workload.RunPopular(sess.Emulator, workload.PopularUI, workload.PopularSpec(workload.PopularUI, 0, *duration))
	case "social":
		r, err = workload.RunPopular(sess.Emulator, workload.PopularSocialVideo, workload.PopularSpec(workload.PopularSocialVideo, 0, *duration))
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
		fmt.Printf("  throughput          %.2f GB/s\n", st.Throughput(*duration)/1e9)
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

// farmSLO mirrors the shardscale farm's QoS contracts: the interactive
// categories carry the paper's tight motion-to-photon bounds, streaming
// ones a looser budget, pure playback none.
func farmSLO(cat int) time.Duration {
	switch cat {
	case emulator.CatCamera, emulator.CatAR:
		return 100 * time.Millisecond
	case emulator.CatLivestream:
		return 250 * time.Millisecond
	}
	return 0
}

// farmTenants declares n guests of the app with the farm's QoS contracts,
// for the fleet layer and the monitor alike.
func farmTenants(app string, cat, n int) []fleetobs.TenantConfig {
	tenants := make([]fleetobs.TenantConfig, n)
	for g := range tenants {
		tenants[g] = fleetobs.TenantConfig{
			Name:     fmt.Sprintf("g%d:%s", g, app),
			FPSFloor: 30,
			M2PSLO:   farmSLO(cat),
		}
	}
	return tenants
}

// finishMonitor finalizes the monitor, prints its report, and writes the
// machine-readable file when requested.
func finishMonitor(mon *tsmon.Monitor, stop time.Duration, monOut string) {
	mon.Finalize(stop)
	rep := mon.Report()
	fmt.Println()
	fmt.Print(rep.FormatText())
	if monOut != "" {
		if err := rep.WriteJSONFile(monOut); err != nil {
			die("write monitor report: %v", err)
		}
		fmt.Printf("monitor report written to %s\n", monOut)
	}
}

// runMonitoredSingle runs one guest with the streaming telemetry engine
// attached, driving the simulation at window grain so rollups seal as
// virtual time passes each boundary. Emerging apps only: the popular-app
// kinds drive their own environment loop.
func runMonitoredSingle(preset emulator.Preset, machine experiments.MachineSpec, app string, dur time.Duration, seed int64, monOut string) {
	cat, ok := farmCategories[app]
	if !ok {
		die("-mon supports the emerging apps only (uhd, 360, camera, ar, livestream)")
	}
	sess := workload.NewSession(preset, machine.New, seed)
	defer sess.Close()
	mon := tsmon.New(tsmon.Config{Tenants: farmTenants(app, cat, 1)})
	experiments.WireGuest(sess, 0, nil, mon)
	pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, 0, dur))
	if err != nil {
		die("run failed: %v", err)
	}
	sess.Env.RunUntilEvery(pd.Stop(), mon.WindowWidth(), mon.Seal)
	r, err := pd.Wait()
	if err != nil {
		die("run failed: %v", err)
	}
	fmt.Println(r)
	fmt.Printf("frames=%d drops=%d (stale %d, deadline %d)\n",
		r.Frames, r.Drops, r.StaleDrops, r.DeadlineDrops)
	finishMonitor(mon, pd.Stop(), monOut)
}

// runFarm runs n guest instances of the app as a farm: one environment per
// guest, coupled through the shared-host arbiter at window barriers.
func runFarm(preset emulator.Preset, machine experiments.MachineSpec, app string, dur time.Duration, seed int64, n int, fleet, monOn bool, monOut string) {
	cat, ok := farmCategories[app]
	if !ok {
		die("-guests farm mode supports the emerging apps only (uhd, 360, camera, ar, livestream)")
	}
	tenants := farmTenants(app, cat, n)
	var fl *fleetobs.Fleet
	if fleet {
		fl = fleetobs.New(fleetobs.Config{Tenants: tenants, Registry: obs.NewRegistry()})
	}
	var mon *tsmon.Monitor
	if monOn {
		mon = tsmon.New(tsmon.Config{Tenants: tenants})
	}
	envs := make([]*sim.Env, 0, n)
	machs := make([]*hostsim.Machine, 0, n)
	pend := make([]*workload.Pending, 0, n)
	var stop time.Duration
	for g := 0; g < n; g++ {
		sess := workload.NewSession(preset, machine.New, seed+int64(g)*1000003)
		defer sess.Close()
		envs = append(envs, sess.Env)
		machs = append(machs, sess.Machine)
		experiments.WireGuest(sess, g, fl, mon)
		pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, g, dur))
		if err != nil {
			die("guest %d: %v", g, err)
		}
		pend = append(pend, pd)
		if pd.Stop() > stop {
			stop = pd.Stop()
		}
	}
	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{}, machs...)
	grp := sim.NewShardGroup(sh.Lookahead(), 1, envs...)
	defer grp.Close()
	sh.Attach(grp)
	if fl != nil {
		fl.Attach(grp, sh)
	}
	if mon != nil {
		grp.AtBarrier(func(prev, now time.Duration) { mon.Seal(now) })
	}
	wallStart := time.Now()
	grp.RunUntil(stop)
	wall := time.Since(wallStart)
	for g, pd := range pend {
		r, err := pd.Wait()
		if err != nil {
			die("guest %d: %v", g, err)
		}
		fmt.Printf("guest %d: %v\n", g, r)
	}
	events := grp.ExecutedEvents()
	fmt.Printf("farm: %d guests, window %v, %d events in %.2fs wall (%.0f events/s)\n",
		n, grp.Lookahead(), events, wall.Seconds(), float64(events)/wall.Seconds())
	if fl != nil {
		fl.Finalize(stop)
		fmt.Println()
		fmt.Print(fl.Report(stop).FormatText())
		fmt.Println()
		fmt.Print(fl.StallReport().FormatText())
	}
	if mon != nil {
		finishMonitor(mon, stop, monOut)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
