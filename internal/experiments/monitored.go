package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/tsmon"
	"repro/internal/workload"
)

// The phasedload experiment is the tsmon engine's acceptance scenario
// (DESIGN.md §15): one monitored livestream guest driven through four
// phases — steady, load-spike (a second UHD-video app lands on the same
// emulator), fault (a 88% collapse of the host-to-GPU DMA path), and
// recovery — with the monitor sealing fixed virtual-time windows and its
// online detectors watching the rollups. Each phase transition is designed
// to fire a distinct detector class: the load spike shifts the demand-fetch
// mean (EWMA drift), the link collapse pushes motion-to-photon past its SLO
// (dual-window burn) and presented FPS under the tenant's floor
// (threshold). The monitor, detectors, windows, and incidents are pure
// functions of the simulation, so the whole report — including every
// incident digest — is byte-identical across runs with equal seeds.

// phasedMinDuration floors the scenario length so every phase spans enough
// windows for the detectors' warmup and dual-window history even under a
// short -duration.
const phasedMinDuration = 16 * time.Second

// phasedCollapseFactor is the fault phase's remaining DRAM->VRAM
// bandwidth fraction (0.12 = an 88% collapse — hard enough to crash FPS
// through the floor, the threshold detector's trigger).
const phasedCollapseFactor = 0.12

// PhasedPhase is one phase of the scenario timeline.
type PhasedPhase struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// PhasedLoadResult is the `-exp phasedload` report.
type PhasedLoadResult struct {
	Duration time.Duration
	Phases   []PhasedPhase
	// Mon is the full monitor report (window series + incidents).
	Mon *tsmon.MonReport
	// Primary app results (the monitored livestream tenant).
	FPS    float64
	Frames int
	// MonFile is where the monitor report was written when Config.MonPath
	// was set ("error: ..." when the write failed).
	MonFile string
	// IncidentTraces lists the per-incident Perfetto snippet files written
	// when Config.TracePath was set: each incident's flight-recorder ring
	// snapshot, one trace per incident.
	IncidentTraces []string
}

// MonitorProbes registers the standard pull-signal set on a tenant: link
// busy time and bytes moved (per-window deltas on the host-to-GPU DMA
// path), the cross-guest arbitration scale, thermal state, watchdog fence
// timeouts, and transport notifications (kicks). Every
// closure reads only the tenant's own machine/emulator state, so sampling
// at seal points is deterministic.
func MonitorProbes(tn *tsmon.Tenant, sess *workload.Session) {
	mach := sess.Machine
	if l := mach.LinkBetween(mach.DRAM, mach.VRAM); l != nil {
		tn.Probe("link_busy_ms", tsmon.ProbeDelta, func() float64 {
			return float64(l.BusyTime()) / float64(time.Millisecond)
		})
		tn.Probe("link_mb", tsmon.ProbeDelta, func() float64 {
			return float64(l.BytesMoved()) / 1e6
		})
		tn.Probe("link_scale", tsmon.ProbeGauge, l.SharedScale)
	}
	if th := mach.Thermal; th != nil {
		tn.Probe("heat", tsmon.ProbeGauge, th.Temperature)
		tn.Probe("throttled", tsmon.ProbeGauge, func() float64 {
			if th.Throttled() {
				return 1
			}
			return 0
		})
	}
	devs := sess.Emulator.Devices()
	tn.Probe("fence_timeouts", tsmon.ProbeDelta, func() float64 {
		var n int
		for _, d := range devs {
			n += d.Stats().FenceTimeouts
		}
		return float64(n)
	})
	tn.Probe("notifs", tsmon.ProbeDelta, func() float64 {
		var n int
		for _, d := range devs {
			n += d.Ring().Stats().Kicks + d.IRQ().Delivered()
		}
		return float64(n)
	})
}

// RunPhasedLoad runs the monitored phased-load scenario. The monitor is
// always attached (it is the experiment's subject); cfg.Duration below
// phasedMinDuration is stretched so every phase spans whole seconds.
func RunPhasedLoad(cfg Config) *PhasedLoadResult {
	dur := cfg.Duration.Truncate(time.Second)
	if dur < phasedMinDuration {
		dur = phasedMinDuration
	}
	q := (dur / 4).Truncate(time.Second)
	faultFor := q * 4 / 5
	res := &PhasedLoadResult{
		Duration: dur,
		Phases: []PhasedPhase{
			{Name: "steady", EndMS: msOf(q)},
			{Name: "load-spike", StartMS: msOf(q), EndMS: msOf(2 * q)},
			{Name: "fault", StartMS: msOf(2 * q), EndMS: msOf(2*q + faultFor)},
			{Name: "recovery", StartMS: msOf(2*q + faultFor), EndMS: msOf(dur)},
		},
	}

	// Flight-recorder sources: a bounded span ring (always on — the point
	// is diagnostic context without whole-run trace cost) and the
	// critical-path profiler for the incidents' dominant component.
	tr := obs.NewTracer()
	tr.SetLimit(4096)
	pf := prof.New()
	seed := appSeed(cfg.Seed, 950, emulator.CatLivestream, 0)
	sess := workload.NewProfiledSession(emulator.VSoC(), HighEnd.New, seed, tr, nil, pf)
	defer sess.Close()

	// Detector set: the stock registry plus a drift detector on DMA traffic
	// volume. The stock fetch-drift watches the demand-fetch mean, which the
	// prefetcher keeps near-empty in steady state; bytes moved on the
	// host-to-GPU link is the signal that shifts regime at the load spike
	// (a second pipeline roughly doubles it). MinDelta is 50 MB/window so
	// the detector arms against real traffic shifts, not per-window jitter.
	specs := append(tsmon.DefaultSpecs(), tsmon.Spec{
		Name: "dma-drift", Class: tsmon.ClassDrift, Signal: "probe:link_mb",
		MinDelta: 50,
	})
	mon := tsmon.New(tsmon.Config{
		Tenants:   []tsmon.TenantConfig{FarmTenant("g0:livestream", emulator.CatLivestream)},
		Detectors: specs,
		Tracer:    tr,
		Profiler:  pf,
	})
	WireGuest(sess, 0, nil, mon)

	// Primary app: the monitored livestream pipeline, running end to end.
	pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatLivestream, 0, dur))
	if err != nil {
		panic(fmt.Sprintf("phasedload: primary app failed to start: %v", err))
	}

	// Load spike: a second app (UHD decode) lands on the same emulator at
	// the phase boundary and leaves one quarter later, contending for the
	// links and devices the livestream pipeline depends on.
	var spike *workload.Pending
	sess.Env.After(q, func() {
		sp, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(emulator.CatUHDVideo, 1, q))
		if err != nil {
			panic(fmt.Sprintf("phasedload: spike app failed to start: %v", err))
		}
		spike = sp
	})

	// Fault: collapse the host-to-GPU DMA path for most of the third
	// quarter, announced to the monitor for incident context.
	inj := faults.NewInjector(sess.Env, seed)
	if eng := sess.Emulator.Manager.Engine(); eng != nil {
		inj.BindEngine(eng)
	}
	mach := sess.Machine
	inj.Schedule(2*q, faultFor, faults.LinkCollapse(mach, mach.DRAM, mach.VRAM, phasedCollapseFactor))
	inj.Arm()
	mon.AddFaultWindow(0, string(faults.ClassLinkCollapse), 2*q, faultFor)

	// Drive the run at window grain: RunUntilEvery executes the identical
	// event stream as a plain RunUntil(dur) and calls Seal at each window
	// boundary with all samples below it recorded.
	sess.Env.RunUntilEvery(pd.Stop(), tsmon.WindowWidth, mon.Seal)
	mon.Finalize(pd.Stop())

	r, err := pd.Wait()
	if err != nil {
		panic(fmt.Sprintf("phasedload: primary app result: %v", err))
	}
	res.FPS, res.Frames = r.FPS, r.Frames
	if spike != nil {
		if _, err := spike.Wait(); err != nil {
			panic(fmt.Sprintf("phasedload: spike app result: %v", err))
		}
	}
	res.Mon = mon.Report()
	if cfg.TracePath != "" {
		base := strings.TrimSuffix(cfg.TracePath, ".json")
		for seq := range res.Mon.Incidents {
			path := fmt.Sprintf("%s-incident%d.json", base, seq)
			err := writeFile(path, func(w io.Writer) error { return mon.WriteIncidentTrace(w, seq) })
			res.IncidentTraces = append(res.IncidentTraces, written(path, err))
		}
	}
	if cfg.MonPath != "" {
		res.MonFile = written(cfg.MonPath, res.Mon.WriteJSONFile(cfg.MonPath))
	}
	return res
}

// msOf converts a virtual duration to milliseconds for phase reporting.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// FormatPhasedLoad renders the scenario report: the phase timeline, the
// monitor summary, and which detector classes fired in which phase.
func FormatPhasedLoad(r *PhasedLoadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Monitored phased-load scenario (%v, window %.0f ms, DESIGN.md §15):\n",
		r.Duration, r.Mon.WindowMS)
	b.WriteString("  phase        start      end\n")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-10s   %6.0fms   %6.0fms\n", p.Name, p.StartMS, p.EndMS)
	}
	fmt.Fprintf(&b, "  primary app: %.1f FPS, %d frames\n\n", r.FPS, r.Frames)
	b.WriteString(r.Mon.FormatText())
	byClass := r.Mon.IncidentsByClass()
	fmt.Fprintf(&b, "  detector classes fired: burn=%d drift=%d threshold=%d\n",
		byClass["burn"], byClass["drift"], byClass["threshold"])
	if r.MonFile != "" {
		fmt.Fprintf(&b, "monitor report %s\n", r.MonFile)
	}
	for seq, p := range r.IncidentTraces {
		fmt.Fprintf(&b, "incident %d trace %s\n", seq, p)
	}
	return b.String()
}

// phasedLoadMetrics projects the scenario into the bench trajectory.
// Everything here is deterministic (virtual-time derived).
func phasedLoadMetrics(r *PhasedLoadResult) []BenchMetric {
	byClass := r.Mon.IncidentsByClass()
	ms := []BenchMetric{
		{Name: "phased.fps", Value: r.FPS, Unit: "fps", Better: "higher"},
		{Name: "phased.windows", Value: float64(r.Mon.Sealed), Unit: "windows", Better: "higher"},
		{Name: "phased.incidents", Value: float64(len(r.Mon.Incidents)), Unit: "incidents", Better: "lower"},
		{Name: "phased.incidents_burn", Value: float64(byClass["burn"]), Unit: "incidents", Better: "lower"},
		{Name: "phased.incidents_drift", Value: float64(byClass["drift"]), Unit: "incidents", Better: "lower"},
		{Name: "phased.incidents_threshold", Value: float64(byClass["threshold"]), Unit: "incidents", Better: "lower"},
	}
	if len(r.Mon.Incidents) > 0 {
		ms = append(ms, BenchMetric{Name: "phased.first_incident_window",
			Value: float64(r.Mon.Incidents[0].Window), Unit: "window", Better: "higher"})
	}
	return ms
}
