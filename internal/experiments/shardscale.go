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

// shardFarmFPSFloor is every farm tenant's QoS floor: half the 60 Hz
// content rate, the point below which streaming is visibly broken.
const shardFarmFPSFloor = 30

// shardFarmTenant maps guest g running category cat onto its fleet QoS
// contract. Motion-to-photon SLOs apply only to the categories whose sink
// measures latency (camera- and network-fed pipelines); the video
// categories are floor-only.
func shardFarmTenant(g, cat int) fleetobs.TenantConfig {
	tc := fleetobs.TenantConfig{
		Name:     fmt.Sprintf("g%d:%s", g, emulator.CategoryNames[cat]),
		FPSFloor: shardFarmFPSFloor,
	}
	switch cat {
	case emulator.CatCamera, emulator.CatAR:
		tc.M2PSLO = 100 * time.Millisecond
	case emulator.CatLivestream:
		tc.M2PSLO = 250 * time.Millisecond
	}
	return tc
}

// ShardScaleResult is the `-exp shardscale` report: one run of the farm.
type ShardScaleResult struct {
	Guests    int
	Lookahead time.Duration

	// Deterministic simulation results.
	GuestFPS []float64
	MeanFPS  float64
	Frames   int
	Events   uint64
	Windows  int

	// Wall-clock throughput: host-dependent and noisy, excluded from the
	// determinism contract (and from byte-identity assertions).
	WallMS       float64
	EventsPerSec float64

	// Fleet telemetry, populated when Config.Fleet is set (DESIGN.md §13).
	// Fleet is the deterministic fleet report; Stall is the wall-clock split
	// of the window loop, excluded from the determinism contract like the
	// wall columns.
	Fleet *fleetobs.Report
	Stall *fleetobs.StallReport
	// FleetTrace is the Perfetto trace file written when Config.Fleet and
	// Config.TracePath are both set.
	FleetTrace string

	// Mon is the streaming-telemetry report, populated when Config.Monitor
	// is set (DESIGN.md §15). Windows seal at the group's barriers, so the
	// report — digest included — is a pure function of the seed. MonFile is
	// the report file written when Config.MonPath is also set.
	Mon     *tsmon.MonReport
	MonFile string
}

// RunShardScale builds the farm — four sessions, a shared-host arbiter, a
// shard group — runs it to the last guest's stop time, and folds the
// results into one report.
func RunShardScale(cfg Config) *ShardScaleResult {
	res := &ShardScaleResult{Guests: shardFarmGuests}
	sessions := make([]*workload.Session, 0, shardFarmGuests)
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	envs := make([]*sim.Env, 0, shardFarmGuests)
	machs := make([]*hostsim.Machine, 0, shardFarmGuests)
	pend := make([]*workload.Pending, 0, shardFarmGuests)
	tenants := make([]fleetobs.TenantConfig, shardFarmGuests)
	for g := range tenants {
		tenants[g] = shardFarmTenant(g, shardFarmCategories[g])
	}

	// Fleet observability (cfg.Fleet) and streaming telemetry (cfg.Monitor)
	// share the tenant contracts. Both are observe-only — results are
	// byte-identical with either layer on or off.
	var fl *fleetobs.Fleet
	if cfg.Fleet {
		fcfg := fleetobs.Config{Tenants: tenants, Registry: obs.NewRegistry()}
		if cfg.TracePath != "" {
			fcfg.Tracer = obs.NewTracer()
		}
		fl = fleetobs.New(fcfg)
	}
	var mon *tsmon.Monitor
	if cfg.Monitor {
		mon = tsmon.New(tsmon.Config{Tenants: tenants})
	}

	var stop time.Duration
	for g := 0; g < shardFarmGuests; g++ {
		cat := shardFarmCategories[g]
		sess := workload.NewSession(emulator.VSoC(), HighEnd.New, appSeed(cfg.Seed, 700+g, cat, 0))
		sessions = append(sessions, sess)
		envs = append(envs, sess.Env)
		machs = append(machs, sess.Machine)
		WireGuest(sess, g, fl, mon)
		pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, g, cfg.Duration))
		if err != nil {
			// vSoC runs every category; a failure here is a programming
			// error, not a compat gap.
			panic(fmt.Sprintf("shardscale: guest %d failed to start: %v", g, err))
		}
		pend = append(pend, pd)
		if pd.Stop() > stop {
			stop = pd.Stop()
		}
	}
	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{PCIeBudget: shardFarmPCIeBudget}, machs...)
	res.Lookahead = sh.Lookahead()
	grp := sim.NewShardGroup(sh.Lookahead(), 1, envs...)
	defer grp.Close()
	sh.Attach(grp)
	grp.AtBarrier(func(prev, now time.Duration) { res.Windows++ })
	if fl != nil {
		fl.Attach(grp, sh)
	}
	if mon != nil {
		// Barriers are the farm's global seal points: at each one every
		// guest has advanced to `now`, so all samples below it are recorded.
		grp.AtBarrier(func(prev, now time.Duration) { mon.Seal(now) })
	}

	wallStart := time.Now()
	grp.RunUntil(stop)
	wall := time.Since(wallStart)

	if fl != nil {
		fl.Finalize(stop)
		res.Fleet = fl.Report(stop)
		res.Stall = fl.StallReport()
		if cfg.TracePath != "" {
			path := strings.TrimSuffix(cfg.TracePath, ".json") + "-fleet.json"
			if err := writeTraceFile(path, fl.Tracer()); err != nil {
				res.FleetTrace = "error: " + err.Error()
			} else {
				res.FleetTrace = path
			}
		}
	}

	if mon != nil {
		mon.Finalize(stop)
		res.Mon = mon.Report()
		if cfg.MonPath != "" {
			if err := res.Mon.WriteJSONFile(cfg.MonPath); err != nil {
				res.MonFile = "error: " + err.Error()
			} else {
				res.MonFile = cfg.MonPath
			}
		}
	}

	for _, pd := range pend {
		r, err := pd.Wait()
		if err != nil {
			panic(fmt.Sprintf("shardscale: guest result: %v", err))
		}
		res.GuestFPS = append(res.GuestFPS, r.FPS)
		res.MeanFPS += r.FPS / shardFarmGuests
		res.Frames += r.Frames
	}
	res.Events = grp.ExecutedEvents()
	res.WallMS = float64(wall.Microseconds()) / 1000
	if s := wall.Seconds(); s > 0 {
		res.EventsPerSec = float64(res.Events) / s
	}
	return res
}

// WireGuest connects guest g's session to its tenant in the fleet, the
// monitor, or both; either may be nil. Frame and demand-fetch telemetry go
// to every attached tenant, and a monitor tenant also gets the session's
// MonitorProbes. Each hook takes one consumer, so wiring both tees them.
func WireGuest(sess *workload.Session, g int, fl *fleetobs.Fleet, mon *tsmon.Monitor) {
	var ft *fleetobs.Tenant
	if fl != nil {
		ft = fl.Tenant(g)
	}
	var mt *tsmon.Tenant
	if mon != nil {
		mt = mon.Tenant(g)
	}
	switch {
	case ft != nil && mt != nil:
		sess.Emulator.FrameObs = frameTee{ft, mt}
		sess.Emulator.Manager.SetFetchObserver(func(at, latency time.Duration) {
			ft.DemandFetch(at, latency)
			mt.DemandFetch(at, latency)
		})
	case ft != nil:
		sess.Emulator.FrameObs = ft
		sess.Emulator.Manager.SetFetchObserver(ft.DemandFetch)
	case mt != nil:
		sess.Emulator.FrameObs = mt
		sess.Emulator.Manager.SetFetchObserver(mt.DemandFetch)
	}
	if mt != nil {
		MonitorProbes(mt, sess)
	}
}

// frameTee fans one guest's frame telemetry out to two observers (fleet +
// monitor) when both layers are active.
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
		r.Guests, r.Lookahead)
	b.WriteString("  mean FPS   per-guest FPS            frames    events     windows   wall ms    events/s")
	if r.Fleet != nil {
		b.WriteString("   floor%    slo%   m2p_p99   fetch_p99   strag")
	}
	b.WriteString("\n")
	guests := make([]string, len(r.GuestFPS))
	for i, f := range r.GuestFPS {
		guests[i] = fmt.Sprintf("%.1f", f)
	}
	fmt.Fprintf(&b, "  %8.2f   %-22s   %6d   %8d   %7d   %7.1f   %9.0f",
		r.MeanFPS, strings.Join(guests, " "), r.Frames, r.Events, r.Windows,
		r.WallMS, r.EventsPerSec)
	if f := r.Fleet; f != nil {
		fmt.Fprintf(&b, "   %6.1f   %5.1f   %5.2fms   %7.2fms   %5d",
			f.Fleet.FloorAttainment*100, f.Fleet.SLOAttainment*100,
			f.Fleet.M2PP99MS, f.Fleet.FetchP99MS, len(f.Fleet.Stragglers))
	}
	b.WriteString("\n  (wall columns are host-dependent)\n")
	if r.Fleet != nil {
		b.WriteString("\n")
		b.WriteString(r.Fleet.FormatText())
		if r.Stall != nil {
			b.WriteString("\n")
			b.WriteString(r.Stall.FormatText())
		}
		if r.FleetTrace != "" {
			fmt.Fprintf(&b, "trace %s\n", r.FleetTrace)
		}
	}
	if r.Mon != nil {
		fmt.Fprintf(&b, "\nmonitor: %d window(s) sealed, %d incident(s), digest %s\n",
			r.Mon.Sealed, len(r.Mon.Incidents), r.Mon.Digest)
		if r.MonFile != "" {
			fmt.Fprintf(&b, "  monitor report %s\n", r.MonFile)
		}
	}
	return b.String()
}

// ShardScaleBenchMetrics projects the farm run into the bench trajectory.
// The fps/frames/events/windows and fleet metrics are deterministic;
// events_per_sec_serial measures the build host and needs a threshold
// override in perf gates. The names match the committed bench baselines.
func ShardScaleBenchMetrics(r *ShardScaleResult) []BenchMetric {
	ms := []BenchMetric{
		{Name: "shardscale.mean_fps", Value: r.MeanFPS, Unit: "fps", Better: "higher"},
		{Name: "shardscale.frames", Value: float64(r.Frames), Unit: "frames", Better: "higher"},
		{Name: "shardscale.events_total", Value: float64(r.Events), Unit: "events", Better: "higher"},
		{Name: "shardscale.windows", Value: float64(r.Windows), Unit: "windows", Better: "higher"},
		{Name: "shardscale.events_per_sec_serial", Value: r.EventsPerSec, Unit: "events/s", Better: "higher"},
	}
	if f := r.Fleet; f != nil {
		ms = append(ms,
			BenchMetric{Name: "fleet.floor_attainment", Value: f.Fleet.FloorAttainment, Unit: "frac", Better: "higher"},
			BenchMetric{Name: "fleet.slo_attainment", Value: f.Fleet.SLOAttainment, Unit: "frac", Better: "higher"},
			BenchMetric{Name: "fleet.m2p_p99_ms", Value: f.Fleet.M2PP99MS, Unit: "ms", Better: "lower"},
			BenchMetric{Name: "fleet.fetch_p99_ms", Value: f.Fleet.FetchP99MS, Unit: "ms", Better: "lower"},
			BenchMetric{Name: "fleet.lookahead_util", Value: f.Sched.LookaheadUtil, Unit: "frac", Better: "higher"},
			BenchMetric{Name: "fleet.stragglers", Value: float64(len(f.Fleet.Stragglers)), Unit: "tenants", Better: "lower"},
		)
	}
	return ms
}
