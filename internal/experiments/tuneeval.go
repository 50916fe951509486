package experiments

import (
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/prof"
	"repro/internal/svm"
	"repro/internal/workload"
)

// Tune-evaluation metric names. The auto-tuner's objective, the
// before/after evidence reports fed to cmd/vsocperf, and DESIGN.md §14 all
// refer to these.
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

// RunTuneEval evaluates one candidate fetch config on one preset (it
// replaces preset.Fetch) and returns the bench report the tuner scores and
// vsoctune -out writes, one "tune" experiment whose metrics carry their
// better-direction, so the tuner's gate and cmd/vsocperf judge the same
// values.
//
// The workload is the Fig. 16 video probe (UHD + 360 categories, high-end
// machine) with the critical-path profiler attached, so every demand fetch
// lands in the profiler's "demand-fetch" class. Sessions fan out over
// Config.Workers and merge in job order, so equal (preset, fetch, seed)
// triples produce byte-identical metrics at every worker count.
func RunTuneEval(cfg Config, preset emulator.Preset, fetch hostsim.FetchConfig) *Report {
	preset.Fetch = fetch
	cells := appCells(cfg, preset, HighEnd, 900, videoCats)
	for i := range cells {
		cells[i].profile = true
	}
	type out struct {
		st  *svm.Stats
		rep *prof.Report
		res *workload.Result
		// Notification accounting: every guest<->host transition paid,
		// kicks here, and two per coherence push or demand fetch (doorbell
		// out, completion back) after the merge.
		ops, notifs int
	}
	outs := sweep(cfg, cells, func(s *workload.Session, res *workload.Result) out {
		o := out{st: s.SVMStats(), rep: s.Env.Profiler().Report(), res: res}
		for _, d := range s.Emulator.Devices() {
			o.ops += d.Stats().Executed
			o.notifs += d.Ring().Stats().Kicks
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
	return NewBenchReport(map[string][]BenchMetric{"tune": ms})
}
