package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/emulator"
	"repro/internal/faults"
)

// The chaos property: every (emulator, fault-class) run terminates, FPS
// converges back to baseline after the fault clears, and the acceptance
// scenario — a 60% link collapse during a video-pipeline run — measurably
// suspends prefetch and degrades FPS on vSoC.
func TestChaosSweepTerminatesAndRecovers(t *testing.T) {
	r := RunRobustnessOn(Quick(), HighEnd, emulator.All(), faults.Classes())

	if want := len(emulator.All()) * len(faults.Classes()); len(r.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(r.Cells), want)
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		name := c.Emulator + "/" + string(c.Fault)
		if c.BaselineFPS <= 0 {
			t.Errorf("%s: baseline FPS %.1f, want > 0 (run must make progress)", name, c.BaselineFPS)
			continue
		}
		// Convergence: recovered FPS within 5% of baseline (0.5 FPS floor
		// absorbs per-second bucketing noise on low-FPS emulators).
		tol := math.Max(0.05*c.BaselineFPS, 0.5)
		if math.Abs(c.RecoveredFPS-c.BaselineFPS) > tol {
			t.Errorf("%s: did not converge back to baseline: base %.1f, recovered %.1f",
				name, c.BaselineFPS, c.RecoveredFPS)
		}
	}

	// The acceptance scenario on vSoC: the injected 60% DRAM->VRAM collapse
	// hits exactly the flow prefetch hides decoded frames under.
	c := r.Cell("vSoC", faults.ClassLinkCollapse)
	if c == nil {
		t.Fatal("no vSoC link-collapse cell")
	}
	if c.Suspensions < 1 {
		t.Errorf("vSoC link collapse: Suspensions = %d, want >= 1", c.Suspensions)
	}
	if c.FaultFPS >= 0.9*c.BaselineFPS {
		t.Errorf("vSoC link collapse: fault FPS %.1f did not degrade from baseline %.1f",
			c.FaultFPS, c.BaselineFPS)
	}
	if c.FaultLatencyMS <= c.BaselineLatencyMS {
		t.Errorf("vSoC link collapse: access latency %.2fms did not rise from %.2fms",
			c.FaultLatencyMS, c.BaselineLatencyMS)
	}

	// DMA loss must be visible as retries, and a stalled GPU as watchdog
	// timeouts — the graceful-degradation counters carry the story.
	if c := r.Cell("vSoC", faults.ClassDMALoss); c == nil || c.DMARetries == 0 {
		t.Error("vSoC dma-loss: no DMA retries recorded")
	}
	if c := r.Cell("vSoC", faults.ClassDeviceStall); c == nil || c.FenceTimeouts == 0 {
		t.Error("vSoC device-stall: watchdog timeouts not recorded")
	}
}

func TestRobustnessCellDeterministic(t *testing.T) {
	one := func() RobustnessCell {
		r := RunRobustnessOn(Quick(), HighEnd,
			[]emulator.Preset{emulator.All()[0]}, []faults.Class{faults.ClassDMALoss})
		return r.Cells[0]
	}
	a, b := one(), one()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeded runs diverged:\n%+v\n%+v", a, b)
	}
}
