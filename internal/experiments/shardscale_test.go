package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/faults"
	"repro/internal/fleetobs"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// shardScaleProjection strips a result to its deterministic columns.
type shardScaleProjection struct {
	GuestFPS []float64
	MeanFPS  float64
	Frames   int
	Events   uint64
	Windows  int
}

func project(r *ShardScaleResult) shardScaleProjection {
	return shardScaleProjection{
		GuestFPS: r.GuestFPS, MeanFPS: r.MeanFPS, Frames: r.Frames,
		Events: r.Events, Windows: r.Windows,
	}
}

func TestShardScaleDeterministicAcrossCounts(t *testing.T) {
	cfg := Config{Duration: 2 * time.Second, Seed: 1}
	res := RunShardScale(cfg)
	if res.Lookahead <= 0 {
		t.Fatalf("Lookahead = %v, want > 0", res.Lookahead)
	}
	base := project(res)
	if base.Frames == 0 || base.Events == 0 || base.Windows == 0 || base.MeanFPS <= 0 {
		t.Fatalf("degenerate farm run: %+v", base)
	}
	if len(base.GuestFPS) != shardFarmGuests {
		t.Fatalf("GuestFPS has %d entries, want %d", len(base.GuestFPS), shardFarmGuests)
	}
	if res.EventsPerSec() <= 0 {
		t.Fatalf("EventsPerSec = %v, want > 0", res.EventsPerSec())
	}
	// RunFarm attaches both observers to every farm.
	if res.Fleet == nil || res.Stall == nil || res.Mon == nil {
		t.Fatalf("farm run lacks a report: fleet %v, stall %v, monitor %v", res.Fleet != nil, res.Stall != nil, res.Mon != nil)
	}
	if got := project(RunShardScale(cfg)); !reflect.DeepEqual(got, base) {
		t.Fatalf("equal-seed rerun diverged:\n got %+v\nwant %+v", got, base)
	}
}

// runUnobservedFarm builds RunShardScale's farm by hand — the same guests,
// seeds and PCIe budget under the same window group, with a barrier window
// counter — but attaches neither the fleet layer nor the monitor, and
// returns the run's deterministic columns.
func runUnobservedFarm(t *testing.T, cfg Config) shardScaleProjection {
	t.Helper()
	var (
		envs  []*sim.Env
		machs []*hostsim.Machine
		pend  []*workload.Pending
		stop  time.Duration
	)
	for g, cat := range shardFarmCategories {
		sess := workload.NewSession(emulator.VSoC(), HighEnd.New, appSeed(cfg.Seed, 700+g, cat, 0))
		defer sess.Close()
		envs, machs = append(envs, sess.Env), append(machs, sess.Machine)
		pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, g, cfg.Duration))
		if err != nil {
			t.Fatalf("guest %d: %v", g, err)
		}
		pend = append(pend, pd)
		stop = max(stop, pd.Stop())
	}
	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{PCIeBudget: shardFarmPCIeBudget}, machs...)
	grp := sim.NewShardGroup(sh.Lookahead(), 1, envs...)
	defer grp.Close()
	sh.Attach(grp)
	var res ShardScaleResult
	grp.AtBarrier(func(prev, now time.Duration) { res.Windows++ })
	grp.RunUntil(stop)
	for g, pd := range pend {
		r, err := pd.Wait()
		if err != nil {
			t.Fatalf("guest %d: %v", g, err)
		}
		res.GuestFPS = append(res.GuestFPS, r.FPS)
		res.MeanFPS += r.FPS / shardFarmGuests
		res.Frames += r.Frames
	}
	res.Events = grp.ExecutedEvents()
	return project(&res)
}

// TestShardScaleFleetDeterministicAcrossCounts pins the §13 contract: the
// farm's fleet report is wired and well-formed, the window-loop split
// counts every window, and the simulation results, the executed-event
// count included, match a farm with neither observability layer attached
// exactly.
func TestShardScaleFleetDeterministicAcrossCounts(t *testing.T) {
	cfg := Config{Duration: 2 * time.Second, Seed: 1}
	res := RunShardScale(cfg)
	base := res.Fleet

	// The hooks must actually flow: tenants present frames, fetch tails
	// are measured, the window loop advanced.
	var frames uint64
	for _, tr := range base.Tenants {
		frames += tr.Frames
	}
	if frames == 0 || base.Sched.Windows == 0 || base.Fleet.FetchP99MS <= 0 {
		t.Fatalf("fleet report looks unwired: frames=%d windows=%d fetch_p99=%g",
			frames, base.Sched.Windows, base.Fleet.FetchP99MS)
	}
	if base.Sched.LookaheadUtil <= 0 || base.Sched.LookaheadUtil > 1 {
		t.Fatalf("lookahead util = %g, want (0, 1]", base.Sched.LookaheadUtil)
	}
	if base.Sched.Events != res.Events {
		t.Fatalf("fleet counted %d events, farm executed %d", base.Sched.Events, res.Events)
	}
	if res.Stall.Windows != base.Sched.Windows {
		t.Fatalf("stall split miscounted: %+v", res.Stall)
	}

	// Observe-only: the simulation columns match the unobserved farm's
	// byte for byte.
	if got, want := project(res), runUnobservedFarm(t, cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("the observability layers perturbed the simulation:\n observed   %+v\n unobserved %+v", got, want)
	}
}

func TestShardScaleBenchMetricsShape(t *testing.T) {
	res := RunShardScale(Config{Duration: time.Second, Seed: 1})
	ms := shardScaleMetrics(res)
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name] = true
	}
	for _, want := range []string{
		"shardscale.mean_fps", "shardscale.frames", "shardscale.events_total",
		"shardscale.windows", "shardscale.events_per_sec_serial",
		"fleet.floor_attainment", "fleet.slo_attainment", "fleet.m2p_p99_ms",
		"fleet.fetch_p99_ms", "fleet.lookahead_util", "fleet.stragglers",
	} {
		if !names[want] {
			t.Errorf("bench metrics missing %s (have %v)", want, names)
		}
	}
	out := FormatShardScale(res)
	if out == "" {
		t.Fatal("empty formatted report")
	}
}

// runChaosFarm drives a two-guest farm — optionally with a link collapse on
// guest 0 for the middle third of the run, opening and closing mid-window —
// and returns guest 0's result plus the fleet telemetry, counting into reg,
// that watched the run.
func runChaosFarm(t *testing.T, dur time.Duration, fault bool, reg *obs.Registry) (*workload.Result, *fleetobs.Fleet, time.Duration) {
	t.Helper()
	cats := []int{emulator.CatUHDVideo, emulator.CatLivestream}
	fcfg := fleetobs.Config{Registry: reg}
	for g, cat := range cats {
		fcfg.Tenants = append(fcfg.Tenants, FarmTenant(fmt.Sprintf("g%d:%s", g, emulator.CategoryNames[cat]), cat))
	}
	fl := fleetobs.New(fcfg)
	var (
		sessions []*workload.Session
		envs     []*sim.Env
		machs    []*hostsim.Machine
		pend     []*workload.Pending
		stop     time.Duration
	)
	for g, cat := range cats {
		sess := workload.NewSession(emulator.VSoC(), HighEnd.New, appSeed(1, 700+g, cat, 0))
		defer sess.Close()
		sessions = append(sessions, sess)
		envs = append(envs, sess.Env)
		machs = append(machs, sess.Machine)
		ft := fl.Tenant(g)
		sess.Emulator.FrameObs = ft
		sess.Emulator.Manager.SetFetchObserver(ft.DemandFetch)
		pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, g, dur))
		if err != nil {
			t.Fatalf("guest %d: %v", g, err)
		}
		pend = append(pend, pd)
		if pd.Stop() > stop {
			stop = pd.Stop()
		}
	}
	if fault {
		inj := faults.NewInjector(envs[0], 99)
		inj.Schedule(dur/3, dur/3, faults.LinkCollapse(machs[0], machs[0].DRAM, machs[0].VRAM, 0.4))
		inj.Arm()
	}
	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{PCIeBudget: shardFarmPCIeBudget}, machs...)
	grp := sim.NewShardGroup(sh.Lookahead(), 1, envs...)
	defer grp.Close()
	sh.Attach(grp)
	fl.Attach(grp, sh)
	grp.RunUntil(stop)
	fl.Finalize(stop)
	r, err := pend[0].Wait()
	if err != nil {
		t.Fatalf("guest 0 result: %v", err)
	}
	return r, fl, stop
}

func TestShardFarmChaosRecoversWithinEnvelope(t *testing.T) {
	// A 60% link collapse on one guest for the middle third — its window
	// opening and closing between barriers — must degrade that guest while
	// it holds and recover to the unfaulted trajectory within the usual
	// robustness envelope afterwards.
	const dur = 9 * time.Second
	reg := obs.NewRegistry()
	base, baseFl, _ := runChaosFarm(t, dur, false, obs.NewRegistry())
	faulted, faultFl, stop := runChaosFarm(t, dur, true, reg)
	atSec := int((dur / 3) / time.Second)
	endSec := int((2 * dur / 3) / time.Second)
	baseMid := meanFPSRange(base.PerSecondFPS, atSec, endSec)
	faultMid := meanFPSRange(faulted.PerSecondFPS, atSec, endSec)
	if faultMid >= baseMid {
		t.Fatalf("fault did not bite: faulted mid-run FPS %.2f >= baseline %.2f", faultMid, baseMid)
	}
	baseRec := meanFPSRange(base.PerSecondFPS, endSec+1, len(base.PerSecondFPS))
	faultRec := meanFPSRange(faulted.PerSecondFPS, endSec+1, len(faulted.PerSecondFPS))
	tol := math.Max(0.05*baseRec, 0.5)
	if math.Abs(faultRec-baseRec) > tol {
		t.Fatalf("no recovery: post-fault FPS %.2f vs unfaulted %.2f (tolerance %.2f)",
			faultRec, baseRec, tol)
	}

	// Telemetry sanity: the window-count metric must agree with the fleet
	// report — windows counted once per barrier.
	rep := faultFl.Report(stop)
	windows := counterValue(reg, "shard.window.count")
	if windows == 0 {
		t.Fatal("shard.window.count stayed 0 across a 9s farm run")
	}
	if int(windows) != rep.Sched.Windows {
		t.Fatalf("shard.window.count = %d but report says %d windows", windows, rep.Sched.Windows)
	}

	// The mid-barrier link collapse must be visible in the QoS plane: the
	// faulted guest racks up floor-violation seconds that the unfaulted run,
	// identical but for the fault, does not.
	violations := func(rep *fleetobs.Report) int {
		for _, tr := range rep.Tenants {
			if tr.Index == 0 {
				return tr.FloorViolations
			}
		}
		return 0
	}
	baseViol, faultViol := violations(baseFl.Report(stop)), violations(rep)
	if faultViol <= baseViol {
		t.Fatalf("link collapse invisible in telemetry: %d floor-violation seconds vs %d unfaulted",
			faultViol, baseViol)
	}
}

// TestFarmTenantContract pins the farm QoS contract: a 30 FPS floor for
// every category, a 100 ms motion-to-photon SLO for camera and AR, 250 ms
// for livestream and none for the video categories; and the shardscale
// and phasedload reports declare exactly FarmTenant's contracts.
func TestFarmTenantContract(t *testing.T) {
	slo := [emulator.NumCategories]time.Duration{
		emulator.CatCamera:     100 * time.Millisecond,
		emulator.CatAR:         100 * time.Millisecond,
		emulator.CatLivestream: 250 * time.Millisecond,
	}
	for cat := 0; cat < emulator.NumCategories; cat++ {
		want := fleetobs.TenantConfig{Name: "t", FPSFloor: 30, M2PSLO: slo[cat]}
		if got := FarmTenant("t", cat); got != want {
			t.Errorf("FarmTenant(%s) = %+v, want %+v", emulator.CategoryNames[cat], got, want)
		}
	}

	declared := func(report string, name string, floor, sloMS float64, want fleetobs.TenantConfig) {
		t.Helper()
		if name != want.Name || floor != want.FPSFloor || sloMS != float64(want.M2PSLO)/float64(time.Millisecond) {
			t.Errorf("%s declares %s floor %g slo %gms, want %+v", report, name, floor, sloMS, want)
		}
	}
	ss := RunShardScale(Config{Duration: time.Second, Seed: 1})
	names := []string{"g0:UHD Video", "g1:360 Video", "g2:Camera", "g3:Livestream"}
	for g, cat := range shardFarmCategories {
		want := FarmTenant(names[g], cat)
		ft, mt := ss.Fleet.Tenants[g], ss.Mon.Tenants[g]
		declared("shardscale fleet report", ft.Name, ft.FPSFloor, ft.M2PSLOMS, want)
		declared("shardscale monitor report", mt.Name, mt.FPSFloor, mt.M2PSLOMS, want)
	}
	pl := RunPhasedLoad(Config{Duration: time.Second, Seed: 1})
	mt := pl.Mon.Tenants[0]
	declared("phasedload monitor report", mt.Name, mt.FPSFloor, mt.M2PSLOMS, FarmTenant("g0:livestream", emulator.CatLivestream))
}
