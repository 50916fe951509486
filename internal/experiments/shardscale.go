package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/fleetobs"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tsmon"
	"repro/internal/workload"
)

// The shardscale experiment drives a multi-guest farm — several vSoC
// instances sharing one physical host — under the windowed farm loop
// (DESIGN.md §12). Each guest is a full emulator session in its own
// simulation environment; a sim.ShardGroup advances the environments in
// lookahead-bounded windows, and a hostsim.SharedHost arbitrates the host's
// aggregate PCIe budget across the guests at every window barrier. The
// simulation results are deterministic per seed; the events/s column
// measures the build host.

// shardFarmGuests is the farm size: one guest per Table 1 streaming
// category that exercises a distinct device pipeline.
const shardFarmGuests = 4

// shardFarmCategories rotates the per-guest workloads so the farm mixes
// decode-, camera-, and network-bound pipelines instead of four copies of
// one profile.
var shardFarmCategories = [shardFarmGuests]int{
	emulator.CatUHDVideo, emulator.Cat360Video, emulator.CatCamera, emulator.CatLivestream,
}

// shardFarmPCIeBudget is the physical host's aggregate PCIe bandwidth
// (bytes/s) shared by the guests. It sits below the sum of the guests'
// private link rates, so a four-guest stampede is arbitrated down while a
// lone guest never notices.
const shardFarmPCIeBudget = 6e9

// FarmTenant is the farm's QoS contract for the guest called name, running
// Table 1 category cat. Every guest gets a 30 FPS floor: half the 60 Hz
// content rate, the point below which streaming is visibly broken. The
// categories whose sink measures latency also get a motion-to-photon SLO:
// 100 ms for the camera-fed pipelines, 250 ms for livestream. The video
// categories are floor-only.
func FarmTenant(name string, cat int) fleetobs.TenantConfig {
	tc := fleetobs.TenantConfig{Name: name, FPSFloor: 30}
	switch cat {
	case emulator.CatCamera, emulator.CatAR:
		tc.M2PSLO = 100 * time.Millisecond
	case emulator.CatLivestream:
		tc.M2PSLO = 250 * time.Millisecond
	}
	return tc
}

// FarmGuest is one guest of a farm: the app it runs, its tenant contract,
// and its session seed.
type FarmGuest struct {
	Spec   workload.Spec
	Tenant fleetobs.TenantConfig
	Seed   int64
}

// FarmRun is one run of a farm.
type FarmRun struct {
	Lookahead time.Duration
	// Results are the guests' app results, in guest order.
	Results []*workload.Result
	Events  uint64
	Windows int
	// Wall is the host time of the run alone, not of building the farm. It
	// measures the build host, so it is outside the determinism contract.
	Wall time.Duration

	// Fleet is the fleet report and Stall the wall-clock split of the
	// window loop (DESIGN.md §13). FleetTrace is the fleet-counter trace
	// file, written when Config.TracePath is set.
	Fleet      *fleetobs.Report
	Stall      *fleetobs.StallReport
	FleetTrace string

	// Mon is the monitor report (DESIGN.md §15). Windows seal at the
	// group's barriers, so the report, digest included, is a pure function
	// of the guests' seeds.
	Mon *tsmon.MonReport
}

// EventsPerSec is the run's simulation throughput on the build host.
func (r *FarmRun) EventsPerSec() float64 {
	if s := r.Wall.Seconds(); s > 0 {
		return float64(r.Events) / s
	}
	return 0
}

// RunFarm builds a farm of preset on machine (DESIGN.md §12) and runs it.
// Each guest gets its own session with its app started. A shared host
// arbitrates the guests' PCIe links under pcieBudget bytes/s (0 =
// uncapped) at the barriers of one window group. The fleet layer and the
// monitor are wired to every guest; both observe only, so the guests'
// results are those of an unobserved farm. The group runs to the last
// guest's stop time, and only that run is timed. An app that cannot start
// or finish is an error.
func RunFarm(cfg Config, preset emulator.Preset, machine MachineSpec, guests []FarmGuest, pcieBudget float64) (*FarmRun, error) {
	tenants := make([]fleetobs.TenantConfig, len(guests))
	for g, gu := range guests {
		tenants[g] = gu.Tenant
	}
	fcfg := fleetobs.Config{Tenants: tenants}
	if cfg.TracePath != "" {
		fcfg.Tracer = obs.NewTracer()
	}
	fl := fleetobs.New(fcfg)
	mon := tsmon.New(tsmon.Config{Tenants: tenants})

	envs := make([]*sim.Env, len(guests))
	machs := make([]*hostsim.Machine, len(guests))
	pend := make([]*workload.Pending, len(guests))
	var stop time.Duration
	for g, gu := range guests {
		sess := workload.NewSession(preset, machine.New, gu.Seed)
		defer sess.Close()
		envs[g], machs[g] = sess.Env, sess.Machine
		WireGuest(sess, g, fl, mon)
		pd, err := workload.StartEmerging(sess.Emulator, gu.Spec)
		if err != nil {
			return nil, fmt.Errorf("guest %d: %w", g, err)
		}
		pend[g] = pd
		stop = max(stop, pd.Stop())
	}
	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{PCIeBudget: pcieBudget}, machs...)
	grp := sim.NewShardGroup(sh.Lookahead(), 1, envs...)
	defer grp.Close()
	sh.Attach(grp)
	run := &FarmRun{Lookahead: sh.Lookahead()}
	grp.AtBarrier(func(prev, now time.Duration) { run.Windows++ })
	fl.Attach(grp, sh)
	// Barriers are the farm's global seal points: at each one every guest
	// has advanced to `now`, so all samples below it are recorded.
	grp.AtBarrier(func(prev, now time.Duration) { mon.Seal(now) })

	wallStart := time.Now()
	grp.RunUntil(stop)
	run.Wall = time.Since(wallStart)

	fl.Finalize(stop)
	run.Fleet, run.Stall = fl.Report(stop), fl.StallReport()
	if cfg.TracePath != "" {
		path := strings.TrimSuffix(cfg.TracePath, ".json") + "-fleet.json"
		run.FleetTrace = written(path, writeTraceFile(path, fl.Tracer()))
	}
	mon.Finalize(stop)
	run.Mon = mon.Report()
	for g, pd := range pend {
		r, err := pd.Wait()
		if err != nil {
			return nil, fmt.Errorf("guest %d: %w", g, err)
		}
		run.Results = append(run.Results, r)
	}
	run.Events = grp.ExecutedEvents()
	return run, nil
}

// ShardScaleResult is the `-exp shardscale` report: one run of the farm.
// GuestFPS, MeanFPS and Frames fold the guests' results.
type ShardScaleResult struct {
	FarmRun
	GuestFPS []float64
	MeanFPS  float64
	Frames   int
	// MonFile is the monitor report file, written when Config.MonPath is
	// set.
	MonFile string
}

// RunShardScale runs the four-guest vSoC farm on the high-end desktop under
// the host's PCIe budget.
func RunShardScale(cfg Config) *ShardScaleResult {
	guests := make([]FarmGuest, shardFarmGuests)
	for g, cat := range shardFarmCategories {
		name := fmt.Sprintf("g%d:%s", g, emulator.CategoryNames[cat])
		guests[g] = FarmGuest{Spec: workload.DefaultSpec(cat, g, cfg.Duration),
			Tenant: FarmTenant(name, cat), Seed: appSeed(cfg.Seed, 700+g, cat, 0)}
	}
	run, err := RunFarm(cfg, emulator.VSoC(), HighEnd, guests, shardFarmPCIeBudget)
	if err != nil {
		// vSoC runs every category; a failure here is a programming
		// error, not a compat gap.
		panic(fmt.Sprintf("shardscale: %v", err))
	}
	res := &ShardScaleResult{FarmRun: *run}
	for _, r := range run.Results {
		res.GuestFPS = append(res.GuestFPS, r.FPS)
		res.MeanFPS += r.FPS / shardFarmGuests
		res.Frames += r.Frames
	}
	if cfg.MonPath != "" {
		res.MonFile = written(cfg.MonPath, run.Mon.WriteJSONFile(cfg.MonPath))
	}
	return res
}

// WireGuest connects guest g's session to its tenant in the monitor and,
// in a farm, in the fleet; fl is nil for a single-environment run. Frame
// and demand-fetch telemetry go to every attached tenant, and the monitor
// tenant also gets the session's MonitorProbes. Each hook takes one
// consumer, so a farm tees them.
func WireGuest(sess *workload.Session, g int, fl *fleetobs.Fleet, mon *tsmon.Monitor) {
	mt := mon.Tenant(g)
	if fl == nil {
		sess.Emulator.FrameObs = mt
		sess.Emulator.Manager.SetFetchObserver(mt.DemandFetch)
	} else {
		ft := fl.Tenant(g)
		sess.Emulator.FrameObs = frameTee{ft, mt}
		sess.Emulator.Manager.SetFetchObserver(func(at, latency time.Duration) {
			ft.DemandFetch(at, latency)
			mt.DemandFetch(at, latency)
		})
	}
	MonitorProbes(mt, sess)
}

// frameTee fans one farm guest's frame telemetry out to its fleet and
// monitor tenants.
type frameTee struct{ a, b emulator.FrameObserver }

func (t frameTee) FramePresented(at time.Duration) {
	t.a.FramePresented(at)
	t.b.FramePresented(at)
}

func (t frameTee) FrameDropped(at time.Duration) {
	t.a.FrameDropped(at)
	t.b.FrameDropped(at)
}

func (t frameTee) MotionToPhoton(at, latency time.Duration) {
	t.a.MotionToPhoton(at, latency)
	t.b.MotionToPhoton(at, latency)
}

// FormatShardScale renders the farm run. The wall columns are the
// host-dependent throughput measurement; everything else is deterministic.
func FormatShardScale(r *ShardScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Farm run (%d-guest farm, lookahead %v, DESIGN.md §12):\n",
		len(r.Results), r.Lookahead)
	b.WriteString("  mean FPS   per-guest FPS            frames    events     windows   wall ms    events/s   floor%    slo%   m2p_p99   fetch_p99   strag\n")
	guests := make([]string, len(r.GuestFPS))
	for i, f := range r.GuestFPS {
		guests[i] = fmt.Sprintf("%.1f", f)
	}
	f := r.Fleet.Fleet
	fmt.Fprintf(&b, "  %8.2f   %-22s   %6d   %8d   %7d   %7.1f   %9.0f   %6.1f   %5.1f   %5.2fms   %7.2fms   %5d\n",
		r.MeanFPS, strings.Join(guests, " "), r.Frames, r.Events, r.Windows,
		float64(r.Wall.Microseconds())/1000, r.EventsPerSec(),
		f.FloorAttainment*100, f.SLOAttainment*100, f.M2PP99MS, f.FetchP99MS, len(f.Stragglers))
	b.WriteString("  (wall columns are host-dependent)\n\n")
	b.WriteString(r.Fleet.FormatText())
	b.WriteString("\n")
	b.WriteString(r.Stall.FormatText())
	if r.FleetTrace != "" {
		fmt.Fprintf(&b, "trace %s\n", r.FleetTrace)
	}
	fmt.Fprintf(&b, "\nmonitor: %d window(s) sealed, %d incident(s), digest %s\n",
		r.Mon.Sealed, len(r.Mon.Incidents), r.Mon.Digest)
	if r.MonFile != "" {
		fmt.Fprintf(&b, "  monitor report %s\n", r.MonFile)
	}
	return b.String()
}

// shardScaleMetrics projects the farm run into the bench trajectory.
// The fps/frames/events/windows and fleet metrics are deterministic;
// events_per_sec_serial measures the build host and needs a threshold
// override in perf gates. The names match the committed bench baselines.
func shardScaleMetrics(r *ShardScaleResult) []BenchMetric {
	f := r.Fleet
	return []BenchMetric{
		{Name: "shardscale.mean_fps", Value: r.MeanFPS, Unit: "fps", Better: "higher"},
		{Name: "shardscale.frames", Value: float64(r.Frames), Unit: "frames", Better: "higher"},
		{Name: "shardscale.events_total", Value: float64(r.Events), Unit: "events", Better: "higher"},
		{Name: "shardscale.windows", Value: float64(r.Windows), Unit: "windows", Better: "higher"},
		{Name: "shardscale.events_per_sec_serial", Value: r.EventsPerSec(), Unit: "events/s", Better: "higher"},
		{Name: "fleet.floor_attainment", Value: f.Fleet.FloorAttainment, Unit: "frac", Better: "higher"},
		{Name: "fleet.slo_attainment", Value: f.Fleet.SLOAttainment, Unit: "frac", Better: "higher"},
		{Name: "fleet.m2p_p99_ms", Value: f.Fleet.M2PP99MS, Unit: "ms", Better: "lower"},
		{Name: "fleet.fetch_p99_ms", Value: f.Fleet.FetchP99MS, Unit: "ms", Better: "lower"},
		{Name: "fleet.lookahead_util", Value: f.Sched.LookaheadUtil, Unit: "frac", Better: "higher"},
		{Name: "fleet.stragglers", Value: float64(len(f.Fleet.Stragglers)), Unit: "tenants", Better: "lower"},
	}
}
