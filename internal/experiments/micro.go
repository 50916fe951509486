package experiments

import (
	"time"

	"repro/internal/emulator"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/svm"
	"repro/internal/workload"
)

// SVMPerf is one emulator's Table 2 row set on one machine.
type SVMPerf struct {
	Emulator string
	Machine  string
	// AccessLatencyMS is the mean HAL begin_access latency (Table 2 row 1).
	AccessLatencyMS float64
	// CoherenceCostMS is the mean coherence maintenance duration (row 2).
	CoherenceCostMS float64
	// ThroughputGBs is useful data accessed per second (row 3).
	ThroughputGBs float64
	// DirectShare is the fraction of coherence done host-direct (§5.2
	// reports 98% for vSoC).
	DirectShare float64
}

// Table2Result is the SVM microbenchmark of §5.2 for the three
// source-instrumentable emulators on both machines.
type Table2Result struct {
	Rows []SVMPerf
}

// Of returns the row for (emulator, machine).
func (t *Table2Result) Of(emu, machine string) *SVMPerf {
	for i := range t.Rows {
		if t.Rows[i].Emulator == emu && t.Rows[i].Machine == machine {
			return &t.Rows[i]
		}
	}
	return nil
}

// mergeStats folds one session's SVM statistics into an aggregate, in the
// field order the Table 2 mix has always used.
func mergeStats(merged, st *svm.Stats) {
	merged.AccessLatency.Merge(&st.AccessLatency)
	merged.HALAccessLatency.Merge(&st.HALAccessLatency)
	merged.CoherenceCost.Merge(&st.CoherenceCost)
	merged.SlackIntervals.Merge(&st.SlackIntervals)
	merged.RegionSizes.Merge(&st.RegionSizes)
	merged.BytesAccessed += st.BytesAccessed
	merged.BytesCoherence += st.BytesCoherence
	merged.BytesWasted += st.BytesWasted
	merged.DirectCoherence += st.DirectCoherence
	merged.GuestCoherence += st.GuestCoherence
	merged.PredTotal += st.PredTotal
	merged.PredCorrect += st.PredCorrect
	merged.SlackError.Merge(&st.SlackError)
	merged.PrefetchTimeError.Merge(&st.PrefetchTimeError)
}

// RunTable2 reproduces Table 2: SVM access latency, coherence cost, and
// throughput for vSoC, GAE, and QEMU-KVM on both machines. Each
// (machine, emulator, category) session is an independent simulation; they
// fan out across Config.Workers and merge in loop order.
func RunTable2(cfg Config) *Table2Result {
	machines := []MachineSpec{HighEnd, MidEnd}
	targets := []emulator.Preset{emulator.VSoC(), emulator.GAE(), emulator.QEMUKVM()}
	var cells []cell
	for mi, m := range machines {
		for ti, p := range targets {
			for cat := 0; cat < emulator.NumCategories; cat++ {
				if p.EmergingCompat[cat] == 0 {
					continue
				}
				cells = append(cells, cell{preset: p, machine: m, cat: cat,
					seed: cfg.Seed + int64(mi*1000+ti*100) + int64(cat)})
			}
		}
	}
	stats := sweep(cfg, cells, svmStats)
	out := &Table2Result{}
	for _, machine := range machines {
		for _, preset := range targets {
			merged := &svm.Stats{}
			var total time.Duration
			for i, c := range cells {
				if c.machine.Name != machine.Name || c.preset.Name != preset.Name || stats[i] == nil {
					continue
				}
				mergeStats(merged, stats[i])
				total += cfg.Duration
			}
			row := SVMPerf{
				Emulator:        preset.Name,
				Machine:         machine.Name,
				AccessLatencyMS: merged.HALAccessLatency.Mean(),
				CoherenceCostMS: merged.CoherenceCost.Mean(),
				DirectShare:     merged.DirectShare(),
			}
			if total > 0 {
				row.ThroughputGBs = merged.Throughput(total) / 1e9
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// PredictionResult is the §5.2 prediction-quality report.
type PredictionResult struct {
	// DeviceAccuracy per category (paper: 99-100%).
	DeviceAccuracy map[string]float64
	// SlackStdErrMS and PrefetchStdErrMS are the standard errors of the
	// timing predictions (paper: 0.9 ms and 0.3 ms).
	SlackStdErrMS    float64
	PrefetchStdErrMS float64
	// Suspensions counts engine self-suspensions across the mix.
	Suspensions int
}

// RunPrediction reproduces the §5.2 prediction-accuracy measurements on the
// high-end machine.
func RunPrediction(cfg Config) *PredictionResult {
	type result struct {
		st   *svm.Stats
		susp int
	}
	cells := appCells(cfg, emulator.VSoC(), HighEnd, 400, allCats)
	results := sweep(cfg, cells, func(s *workload.Session, _ *workload.Result) result {
		return result{st: s.SVMStats(), susp: s.Emulator.Manager.Engine().Suspensions()}
	})
	out := &PredictionResult{DeviceAccuracy: make(map[string]float64)}
	var slackErr, pfErr metrics.Distribution
	for cat := 0; cat < emulator.NumCategories; cat++ {
		var correct, total int
		for i, c := range cells {
			r := results[i]
			if c.cat != cat || r.st == nil {
				continue
			}
			correct += r.st.PredCorrect
			total += r.st.PredTotal
			out.Suspensions += r.susp
			slackErr.Merge(&r.st.SlackError)
			pfErr.Merge(&r.st.PrefetchTimeError)
		}
		if total > 0 {
			out.DeviceAccuracy[emulator.CategoryNames[cat]] = float64(correct) / float64(total)
		}
	}
	out.SlackStdErrMS = slackErr.StdErr()
	out.PrefetchStdErrMS = pfErr.StdErr()
	return out
}

// OverheadResult is the §5.2 framework-overhead report.
type OverheadResult struct {
	// MemoryBytes is the SVM framework's resident footprint (paper bound:
	// 3.1 MiB).
	MemoryBytes int64
	// CPUFraction estimates the manager's bookkeeping CPU share (paper:
	// <1%), charging a nominal 2 microseconds of CPU per SVM operation.
	CPUFraction float64
	// FenceTablePeak is the peak occupancy of the 4 KiB fence table.
	FenceTablePeak int
	FenceCapacity  int

	// TraceFile and MetricsDump mirror the RobustnessCell fields: set only
	// when the run was configured with TracePath/Metrics.
	TraceFile   string
	MetricsDump string
}

// RunOverhead reproduces the §5.2 overhead accounting during a camera-app
// run (the busiest pipeline).
func RunOverhead(cfg Config) *OverheadResult {
	var tr *obs.Tracer
	if cfg.TracePath != "" {
		tr = obs.NewTracer()
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
	}
	sess := workload.NewProfiledSession(emulator.VSoC(), HighEnd.New, cfg.Seed, tr, reg, nil)
	defer sess.Close()
	out := &OverheadResult{}
	finishObs := func() {
		if tr != nil {
			out.TraceFile = written(cfg.TracePath, writeTraceFile(cfg.TracePath, tr))
		}
		if reg != nil {
			out.MetricsDump = reg.FormatText()
		}
	}
	spec := workload.DefaultSpec(emulator.CatCamera, 0, cfg.Duration)
	if _, err := workload.RunEmerging(sess.Emulator, spec); err != nil {
		finishObs()
		return out
	}
	st := sess.SVMStats()
	const perOpCPU = 2 * time.Microsecond
	opCPU := time.Duration(st.Accesses) * perOpCPU
	out.MemoryBytes = sess.Emulator.Manager.MemoryFootprint()
	out.CPUFraction = float64(opCPU) / float64(cfg.Duration)
	out.FenceTablePeak = sess.Emulator.Fences.Peak()
	out.FenceCapacity = sess.Emulator.Fences.Capacity()
	finishObs()
	return out
}
