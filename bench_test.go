package repro

// One benchmark per registered experiment, plus the §2.3 study behind
// Figs. 4-6 (cmd/vsoctrace's, not a registry entry). Each runs at a reduced
// configuration and reports its headline quantities as custom benchmark
// metrics — for the registry experiments, the bench metrics `vsocbench
// -json` writes — so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in one sweep. Absolute wall-clock time
// reflects simulator speed, not emulator performance; the custom metrics
// (fps, ms, GB/s, fractions) carry the reproduced results.

import (
	"testing"
	"time"

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

// BenchmarkExperiments runs every registry entry with a runner (tune's is
// cmd/vsocbench's) and reports its bench metrics.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		if e.Run == nil {
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			var ms []experiments.BenchMetric
			for i := 0; i < b.N; i++ {
				_, m, err := e.Run(benchCfg())
				if err != nil {
					b.Fatal(err)
				}
				ms = m
			}
			for _, m := range ms {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}

// BenchmarkStudy regenerates the §2.3 study behind Figs. 4-6: per platform,
// the region-size distribution (Fig. 4), coherence cost (Fig. 5) and slack
// intervals (Fig. 6).
func BenchmarkStudy(b *testing.B) {
	var res *experiments.StudyResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunStudy(benchCfg())
	}
	for _, tr := range res.Traces {
		b.ReportMetric(tr.RegionSizes.Percentile(50), tr.Platform+"-size-p50-MiB")
		b.ReportMetric(tr.RegionSizes.FractionAbove(1)*100, tr.Platform+"-over-1MiB-pct")
		b.ReportMetric(tr.CoherenceCost.Mean(), tr.Platform+"-coherence-ms")
		b.ReportMetric(tr.SlackIntervals.Mean(), tr.Platform+"-slack-ms")
	}
}
