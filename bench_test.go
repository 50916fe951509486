package repro

// One benchmark per registered experiment. Each runs at a reduced
// configuration and reports its bench metrics — the ones `vsocbench -json`
// writes — as custom benchmark metrics, so
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

// BenchmarkExperiments runs every registry entry and reports its bench
// metrics.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
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
