package experiments

import (
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/prefetch"
	"repro/internal/prof"
	"repro/internal/svm"
	"repro/internal/virtio"
	"repro/internal/workload"
)

// Tunable is the knob-addressable slice of an emulator preset: the
// interacting configuration surfaces the auto-tuner (internal/tune,
// DESIGN.md §14) searches over. It deliberately excludes the calibration
// constants (cost factors, API base costs) — those encode the paper's
// measured hardware, not policy — and carries only the policy layers this
// repository added on top: notification batching (§9), chunked demand
// fetches (§11), and the prefetch engine's suspension heuristics (§3.3).
type Tunable struct {
	Batch    virtio.BatchConfig
	Fetch    hostsim.FetchConfig
	Prefetch prefetch.Config
}

// TunableOf extracts a preset's shipped tunable — the search's baseline
// vector decodes to exactly this value.
func TunableOf(p emulator.Preset) Tunable {
	return Tunable{Batch: p.Batch, Fetch: p.Fetch, Prefetch: p.SVM.Prefetch}
}

// ApplyTo returns the preset with the tunable installed. The prefetch
// knobs only matter when the preset runs the prefetch protocol; installing
// them unconditionally is harmless because other protocols never consult
// the engine config.
func (t Tunable) ApplyTo(p emulator.Preset) emulator.Preset {
	p.Batch = t.Batch
	p.Fetch = t.Fetch
	p.SVM.Prefetch = t.Prefetch
	return p
}

// Tune-evaluation metric names. The auto-tuner's objectives and
// constraints, the before/after evidence reports fed to cmd/vsocperf, and
// DESIGN.md §14 all refer to these.
const (
	TuneAccessMean      = "tune.access_mean_ms"
	TuneAccessP99       = "tune.access_p99_ms"
	TuneDemandFetchMean = "tune.demand_fetch_mean_ms"
	TuneFrameCritMean   = "tune.frame_crit_mean_ms"
	TuneFPS             = "tune.fps"
	TuneFrames          = "tune.frames"
	TuneNotifPerOp      = "tune.notif_per_op"
	TuneThroughput      = "tune.throughput_gbs"
)

// RunTuneEval evaluates one candidate tunable on one preset and returns the
// named measurements the tuner scores — the same projection the bench
// trajectory uses (BenchMetric carries the better-direction, so the
// before/after evidence reports diff through cmd/vsocperf unchanged).
//
// The workload is the Fig. 16 video probe (UHD + 360 categories, high-end
// machine) with the critical-path profiler attached: it exercises every
// knob family at once — demand fetches (chunking), coherence pushes and
// device notifications (batching), and, on prefetch-protocol presets, the
// engine's suspension heuristics. Sessions fan out over Config.Workers and
// merge in job order, so equal (preset, tunable, seed) triples produce
// byte-identical metrics at every worker count.
func RunTuneEval(cfg Config, preset emulator.Preset, t Tunable) []BenchMetric {
	preset = t.ApplyTo(preset)
	cells := appCells(cfg, preset, HighEnd, 900, videoCats)
	for i := range cells {
		cells[i].profile = true
	}
	type out struct {
		st  *svm.Stats
		rep *prof.Report
		res *workload.Result
		// Notification accounting (the batching-sweep formula).
		ops, notifs int
	}
	outs := sweep(cfg, cells, func(s *workload.Session, res *workload.Result) out {
		o := out{st: s.SVMStats(), rep: s.Env.Profiler().Report(), res: res}
		for _, d := range s.Emulator.Devices() {
			o.ops += d.Stats().Executed
			o.notifs += d.Ring().Stats().Kicks + d.IRQ().Delivered()
		}
		return o
	})

	merged := prof.New().Report()
	st := &svm.Stats{}
	var fpsSum float64
	var frames, sessions int
	var ops, notifs int
	for _, o := range outs {
		if o.st == nil {
			continue
		}
		sessions++
		mergeStats(st, o.st)
		st.CoherenceBatches += o.st.CoherenceBatches
		st.DemandFetches += o.st.DemandFetches
		merged.Merge(o.rep)
		fpsSum += o.res.FPS
		frames += o.res.Frames
		ops += o.ops
		notifs += o.notifs
	}
	notifs += 2*st.CoherenceBatches + 2*st.DemandFetches

	ms := []BenchMetric{
		{Name: TuneAccessMean, Value: st.AccessLatency.Mean(), Unit: "ms", Better: "lower"},
		{Name: TuneAccessP99, Value: st.AccessLatency.Percentile(99), Unit: "ms", Better: "lower"},
		{Name: TuneFrames, Value: float64(frames), Unit: "count", Better: "higher"},
	}
	if sessions > 0 {
		ms = append(ms, BenchMetric{Name: TuneFPS, Value: fpsSum / float64(sessions), Unit: "fps", Better: "higher"})
		ms = append(ms, BenchMetric{Name: TuneThroughput,
			Value: st.Throughput(time.Duration(sessions)*cfg.Duration) / 1e9, Unit: "GB/s", Better: "higher"})
	}
	var dfMean float64
	if cs := merged.Classes["demand-fetch"]; cs != nil && cs.Count > 0 {
		dfMean = float64(cs.Total.Microseconds()) / 1000 / float64(cs.Count)
	}
	ms = append(ms, BenchMetric{Name: TuneDemandFetchMean, Value: dfMean, Unit: "ms", Better: "lower"})
	if merged.Frames > 0 {
		ms = append(ms, BenchMetric{Name: TuneFrameCritMean,
			Value: float64(merged.Total.Milliseconds()) / float64(merged.Frames), Unit: "ms", Better: "lower"})
	}
	if ops > 0 {
		ms = append(ms, BenchMetric{Name: TuneNotifPerOp,
			Value: float64(notifs) / float64(ops), Unit: "notif/op", Better: "lower"})
	}
	// Round and sort exactly like the bench report, so a cache hit in the
	// tuner returns byte-identical values to the evaluation it replays.
	r := &Report{Schema: 1, Metrics: ms}
	r.normalize()
	return r.Metrics
}
