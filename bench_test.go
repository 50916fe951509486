package repro

// One benchmark per table and figure of the paper. Each runs the
// corresponding experiment at a reduced configuration and reports the
// headline quantities as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in one sweep. Absolute wall-clock time
// reflects simulator speed, not emulator performance; the custom metrics
// (fps, ms, GB/s, percent) carry the reproduced results.

import (
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/experiments"
)

// benchCfg trades statistical depth for benchmark turnaround.
func benchCfg() experiments.Config {
	return experiments.Config{
		Duration:        8 * time.Second,
		AppsPerCategory: 2,
		PopularApps:     6,
		Seed:            1,
	}
}

// BenchmarkTable1Workloads regenerates the Table 1 taxonomy (static) and
// validates the generators run end to end.
func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 5 {
			b.Fatal("Table 1 must have five categories")
		}
	}
}

// BenchmarkTable2SVMMicro regenerates Table 2: SVM access latency, coherence
// cost, and throughput on both machines. Sessions fan out across the CPUs;
// compare against BenchmarkTable2SVMMicroSerial for the speedup.
func BenchmarkTable2SVMMicro(b *testing.B) {
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable2(benchCfg())
	}
	v := res.Of("vSoC", experiments.HighEnd.Name)
	g := res.Of("GAE", experiments.HighEnd.Name)
	q := res.Of("QEMU-KVM", experiments.HighEnd.Name)
	b.ReportMetric(v.AccessLatencyMS, "vsoc-access-ms")
	b.ReportMetric(g.AccessLatencyMS, "gae-access-ms")
	b.ReportMetric(q.AccessLatencyMS, "qemu-access-ms")
	b.ReportMetric(v.CoherenceCostMS, "vsoc-coherence-ms")
	b.ReportMetric(g.CoherenceCostMS, "gae-coherence-ms")
	b.ReportMetric(v.ThroughputGBs, "vsoc-GB/s")
	b.ReportMetric(g.ThroughputGBs, "gae-GB/s")
}

// BenchmarkTable2SVMMicroSerial is the single-worker baseline for the
// parallel fan-out: identical results, wall-clock difference is the speedup
// (visible only on multicore hosts).
func BenchmarkTable2SVMMicroSerial(b *testing.B) {
	cfg := benchCfg()
	cfg.Workers = 1
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable2(cfg)
	}
	v := res.Of("vSoC", experiments.HighEnd.Name)
	b.ReportMetric(v.AccessLatencyMS, "vsoc-access-ms")
}

// studyTrace returns one platform's trace from the §2.3 study.
func studyTrace(res *experiments.StudyResult, platform string) *experiments.PlatformTrace {
	for i := range res.Traces {
		if res.Traces[i].Platform == platform {
			return &res.Traces[i]
		}
	}
	return nil
}

// BenchmarkFigure4SizeCDF regenerates the region-size distribution of the
// §2.3 study.
func BenchmarkFigure4SizeCDF(b *testing.B) {
	var res *experiments.StudyResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunStudy(benchCfg())
	}
	native := studyTrace(res, "native")
	b.ReportMetric(native.RegionSizes.Percentile(50), "p50-MiB")
	b.ReportMetric(native.RegionSizes.FractionAbove(1)*100, "over-1MiB-pct")
}

// BenchmarkFigure5CoherenceCDF regenerates the emulator coherence-cost
// distributions of the §2.3 study.
func BenchmarkFigure5CoherenceCDF(b *testing.B) {
	var res *experiments.StudyResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunStudy(benchCfg())
	}
	b.ReportMetric(studyTrace(res, "GAE").CoherenceCost.Mean(), "gae-ms")
	b.ReportMetric(studyTrace(res, "QEMU-KVM").CoherenceCost.Mean(), "qemu-ms")
}

// BenchmarkFigure6SlackCDF regenerates the slack-interval distributions.
func BenchmarkFigure6SlackCDF(b *testing.B) {
	var res *experiments.StudyResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunStudy(benchCfg())
	}
	for _, tr := range res.Traces {
		b.ReportMetric(tr.SlackIntervals.Mean(), tr.Platform+"-slack-ms")
	}
}

// BenchmarkFigure10FPSHighEnd regenerates the high-end emerging-app FPS
// comparison.
func BenchmarkFigure10FPSHighEnd(b *testing.B) {
	var res *experiments.EmergingResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunEmergingSweep(benchCfg(), experiments.HighEnd)
	}
	for _, p := range emulator.All() {
		b.ReportMetric(res.MeanFPSOf(p.Name), p.Name+"-fps")
	}
}

// BenchmarkFigure11FPSMidEnd regenerates the middle-end laptop comparison
// (longer runs expose the thermal throttling of §5.3).
func BenchmarkFigure11FPSMidEnd(b *testing.B) {
	cfg := benchCfg()
	var res *experiments.EmergingResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunEmergingSweep(cfg, experiments.MidEnd)
	}
	b.ReportMetric(res.MeanFPSOf("vSoC"), "vsoc-fps")
	b.ReportMetric(res.MeanFPSOf("GAE"), "gae-fps")
}

// BenchmarkFigure12Ablation regenerates the prefetch/fence breakdown.
func BenchmarkFigure12Ablation(b *testing.B) {
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunAblation(benchCfg())
	}
	b.ReportMetric(res.AvgDropNoPrefetch()*100, "noprefetch-drop-pct")
	b.ReportMetric(res.VideoDropNoPrefetch()*100, "noprefetch-video-drop-pct")
	b.ReportMetric(res.AvgDropNoFence()*100, "nofence-drop-pct")
}

// BenchmarkFigure13LatencyHighEnd regenerates the high-end motion-to-photon
// comparison.
func BenchmarkFigure13LatencyHighEnd(b *testing.B) {
	var res *experiments.EmergingResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunEmergingSweep(benchCfg(), experiments.HighEnd)
	}
	b.ReportMetric(res.MeanLatencyOf("vSoC"), "vsoc-m2p-ms")
	b.ReportMetric(res.MeanLatencyOf("GAE"), "gae-m2p-ms")
	b.ReportMetric(res.MeanLatencyOf("Bluestacks"), "bluestacks-m2p-ms")
}

// BenchmarkFigure14LatencyMidEnd regenerates the laptop latency comparison
// (the integrated camera shaves ~10 ms, §5.3).
func BenchmarkFigure14LatencyMidEnd(b *testing.B) {
	var res *experiments.EmergingResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunEmergingSweep(benchCfg(), experiments.MidEnd)
	}
	b.ReportMetric(res.MeanLatencyOf("vSoC"), "vsoc-m2p-ms")
	b.ReportMetric(res.MeanLatencyOf("GAE"), "gae-m2p-ms")
}

// BenchmarkFigure15PopularApps regenerates the top-popular-app comparison.
func BenchmarkFigure15PopularApps(b *testing.B) {
	var res *experiments.PopularResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunPopular(benchCfg())
	}
	for _, c := range res.Cells {
		b.ReportMetric(c.MeanFPS, c.Emulator+"-fps")
	}
}

// BenchmarkFigure16WriteInvalidate regenerates the access-latency CDF with
// the prefetch engine disabled.
func BenchmarkFigure16WriteInvalidate(b *testing.B) {
	var res *experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig16(benchCfg())
	}
	b.ReportMetric(res.MeanMS, "mean-ms")
	b.ReportMetric(res.P99MS, "p99-ms")
	b.ReportMetric(res.MaxMS, "max-ms")
}

// BenchmarkPredictionAccuracy regenerates the §5.2 prediction-quality
// numbers (>=99% device accuracy, sub-ms timing errors).
func BenchmarkPredictionAccuracy(b *testing.B) {
	var res *experiments.PredictionResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunPrediction(benchCfg())
	}
	min := 1.0
	for _, acc := range res.DeviceAccuracy {
		if acc < min {
			min = acc
		}
	}
	b.ReportMetric(min*100, "min-accuracy-pct")
	b.ReportMetric(res.SlackStdErrMS, "slack-stderr-ms")
	b.ReportMetric(res.PrefetchStdErrMS, "prefetch-stderr-ms")
}

// BenchmarkPopularAblation regenerates the §5.5 popular-app ablation.
func BenchmarkPopularAblation(b *testing.B) {
	var res *experiments.PopularAblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunPopularAblation(benchCfg())
	}
	b.ReportMetric(res.FullMean, "full-fps")
	b.ReportMetric(res.NoPrefetchMean, "noprefetch-fps")
	b.ReportMetric(res.NoFenceMean, "nofence-fps")
}

// BenchmarkServicesStudy regenerates the §2.3 service-attribution numbers.
func BenchmarkServicesStudy(b *testing.B) {
	var res *experiments.ServicesResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunServices(benchCfg())
	}
	b.ReportMetric(res.FewSharerFraction*100, "few-sharer-pct")
	b.ReportMetric(res.CyclicFraction*100, "cyclic-pct")
	b.ReportMetric(res.CallsPerSecond, "api-calls/s")
}

// BenchmarkProtocolComparison regenerates the §7 coherence-protocol
// tradeoff microbench.
func BenchmarkProtocolComparison(b *testing.B) {
	var res *experiments.ProtocolResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunProtocols(benchCfg())
	}
	for _, c := range res.Cells {
		b.ReportMetric(c.ReadLatencyMS, c.Protocol+"-read-ms")
		b.ReportMetric(c.WasteFraction*100, c.Protocol+"-waste-pct")
	}
}

// BenchmarkThermalStory regenerates the §5.3 laptop degradation trajectory.
func BenchmarkThermalStory(b *testing.B) {
	var res *experiments.ThermalResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunThermal(benchCfg())
	}
	if len(res.GAE) > 0 {
		b.ReportMetric(res.GAE[0], "gae-first-fps")
		b.ReportMetric(res.GAE[len(res.GAE)-1], "gae-last-fps")
	}
}

// BenchmarkFrameworkOverhead regenerates the §5.2 overhead accounting
// (memory <= 3.1 MiB, CPU < 1%).
func BenchmarkFrameworkOverhead(b *testing.B) {
	var res *experiments.OverheadResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunOverhead(benchCfg())
	}
	b.ReportMetric(float64(res.MemoryBytes)/(1<<20), "mem-MiB")
	b.ReportMetric(res.CPUFraction*100, "cpu-pct")
}

// BenchmarkResolutionSweep regenerates the §5.3 functional check: stuttering
// emulators play 720p smoothly.
func BenchmarkResolutionSweep(b *testing.B) {
	var res *experiments.ResolutionResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunResolutionSweep(benchCfg())
	}
	if c := res.Of("Bluestacks", 1280); c != nil {
		b.ReportMetric(c.FPS, "bluestacks-720p-fps")
	}
	if c := res.Of("Bluestacks", 3840); c != nil {
		b.ReportMetric(c.FPS, "bluestacks-uhd-fps")
	}
}
