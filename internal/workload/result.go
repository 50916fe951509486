package workload

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Result summarizes one app run on one emulator.
type Result struct {
	App      string
	Emulator string
	Duration time.Duration

	// FPS is the presented frame rate (the dumpsys metric, §5.3).
	FPS float64
	// Frames and Drops count presented and discarded frames.
	Frames, Drops int
	// StaleDrops were discarded unrendered (backlog too old);
	// DeadlineDrops rendered but missed the presentation window (§5.4).
	StaleDrops, DeadlineDrops int
	// Latency is the motion-to-photon distribution in milliseconds
	// (camera/AR/livestream apps only).
	Latency metrics.Distribution
	// PerSecondFPS is the instantaneous frame rate in each whole second
	// of the run — the series behind the §5.3 thermal-degradation story.
	PerSecondFPS []float64
}

func (r *Result) String() string {
	if r.Latency.Count() > 0 {
		return fmt.Sprintf("%s on %s: %.1f FPS, %d drops, m2p %.1f ms",
			r.App, r.Emulator, r.FPS, r.Drops, r.Latency.Mean())
	}
	return fmt.Sprintf("%s on %s: %.1f FPS, %d drops", r.App, r.Emulator, r.FPS, r.Drops)
}
