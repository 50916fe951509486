package experiments

import (
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
	if res.EventsPerSec <= 0 {
		t.Fatalf("EventsPerSec = %v, want > 0", res.EventsPerSec)
	}
	if got := project(RunShardScale(cfg)); !reflect.DeepEqual(got, base) {
		t.Fatalf("equal-seed rerun diverged:\n got %+v\nwant %+v", got, base)
	}
}

// TestShardScaleFleetDeterministicAcrossCounts pins the §13 contract: with
// fleetobs on, the fleet report is wired and well-formed, the window-loop
// split counts every window, and the simulation results match a fleet-off
// run exactly.
func TestShardScaleFleetDeterministicAcrossCounts(t *testing.T) {
	res := RunShardScale(Config{Duration: 2 * time.Second, Seed: 1, Fleet: true})
	base := res.Fleet
	if base == nil {
		t.Fatal("Fleet config did not produce a fleet report")
	}

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
	if res.Stall == nil || res.Stall.Windows != base.Sched.Windows {
		t.Fatalf("stall split missing or miscounted: %+v", res.Stall)
	}

	// Observe-only: the simulation columns match a fleet-off run byte for
	// byte.
	off := RunShardScale(Config{Duration: 2 * time.Second, Seed: 1})
	if got, want := project(res), project(off); !reflect.DeepEqual(got, want) {
		t.Errorf("fleetobs perturbed the simulation:\n on  %+v\n off %+v", got, want)
	}
}

func TestShardScaleBenchMetricsShape(t *testing.T) {
	res := RunShardScale(Config{Duration: time.Second, Seed: 1})
	ms := ShardScaleBenchMetrics(res)
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name] = true
	}
	for _, want := range []string{
		"shardscale.mean_fps", "shardscale.frames", "shardscale.events_total",
		"shardscale.windows", "shardscale.events_per_sec_serial",
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
		fcfg.Tenants = append(fcfg.Tenants, shardFarmTenant(g, cat))
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
		WireGuest(sess, g, fl, nil)
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
