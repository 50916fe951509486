package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/faults"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/svm"
	"repro/internal/workload"
)

// The robustness experiment drives the degraded-mode machinery nothing in
// the ordinary evaluation touches: each run plays the UHD-video pipeline
// while one fault class holds for the middle third of the run, and the
// result is a per-(emulator, fault) degradation curve — FPS and access
// latency before, during, and after the fault window — plus the graceful-
// degradation counters (prefetch suspensions, fence watchdog timeouts,
// DMA retries, dropped ops). The acceptance story: an injected 60% link
// collapse must measurably suspend prefetch and degrade FPS, and FPS must
// converge back to baseline once the fault clears.

// RobustnessCell is one (emulator, fault class) degradation measurement.
type RobustnessCell struct {
	Emulator string
	Fault    faults.Class

	// FPS phases: seconds before the fault window (warm-up second
	// excluded), seconds inside it, and seconds after it (settling second
	// excluded).
	BaselineFPS  float64
	FaultFPS     float64
	RecoveredFPS float64

	// Mean SVM access latency (ms) per phase.
	BaselineLatencyMS float64
	FaultLatencyMS    float64

	// Graceful-degradation counters at end of run.
	Suspensions   int
	FenceTimeouts int
	DMARetries    int
	Stalls        int
	DroppedOps    int

	// TraceFile is the per-cell fault-window trace written when the run was
	// configured with a TracePath ("error: ..." when the write failed);
	// MetricsDump is the cell's metrics report when Metrics was on. Both are
	// empty — and omitted from every report — with observability off.
	TraceFile   string
	MetricsDump string
}

// Recovery returns RecoveredFPS as a fraction of BaselineFPS.
func (c *RobustnessCell) Recovery() float64 {
	if c.BaselineFPS == 0 {
		return 0
	}
	return c.RecoveredFPS / c.BaselineFPS
}

// RobustnessResult is one machine's full fault sweep.
type RobustnessResult struct {
	Machine  string
	Duration time.Duration
	FaultAt  time.Duration
	FaultFor time.Duration
	Cells    []RobustnessCell // emulator-major, fault-class-minor
}

// robustnessWatchdog bounds host-executor fence waits during robustness
// runs so a stalled device reads as counted timeouts, not a hung pipeline.
const robustnessWatchdog = 250 * time.Millisecond

// RunRobustness sweeps every emulator preset across every fault class on
// the high-end machine.
func RunRobustness(cfg Config) *RobustnessResult {
	return RunRobustnessOn(cfg, HighEnd, presets(), faults.Classes())
}

// RunRobustnessOn runs the robustness sweep for the given presets and
// fault classes. Each (emulator, fault) pair simulates one UHD-video app
// with the fault held for the middle third of the run; runs shorter than
// 12 s are stretched so every phase spans several whole seconds.
func RunRobustnessOn(cfg Config, machine MachineSpec, emus []emulator.Preset, classes []faults.Class) *RobustnessResult {
	dur := cfg.Duration.Truncate(time.Second)
	if dur < 12*time.Second {
		dur = 12 * time.Second
	}
	faultAt := (dur / 3).Truncate(time.Second)
	faultFor := faultAt

	type job struct{ ei, ci int }
	jobs := make([]job, 0, len(emus)*len(classes))
	for ei := range emus {
		for ci := range classes {
			jobs = append(jobs, job{ei, ci})
		}
	}
	cells := parmap(cfg.workers(), len(jobs), func(k int) RobustnessCell {
		j := jobs[k]
		return runRobustnessCell(cfg, machine, emus[j.ei], j.ei, classes[j.ci], j.ci,
			dur, faultAt, faultFor)
	})
	return &RobustnessResult{
		Machine:  machine.Name,
		Duration: dur,
		FaultAt:  faultAt,
		FaultFor: faultFor,
		Cells:    cells,
	}
}

func runRobustnessCell(cfg Config, machine MachineSpec, preset emulator.Preset,
	ei int, class faults.Class, ci int, dur, faultAt, faultFor time.Duration) RobustnessCell {

	preset.DeviceWatchdog = robustnessWatchdog
	seed := appSeed(cfg.Seed, 900+ei, ci, 0)
	tr, reg := cellObs(cfg, faultAt, faultFor)
	sess := workload.NewObservedSession(preset, machine.New, seed, tr, reg)
	defer sess.Close()
	mach := sess.Machine

	inj := faults.NewInjector(sess.Env, seed)
	if eng := sess.Emulator.Manager.Engine(); eng != nil {
		inj.BindEngine(eng)
	}
	switch class {
	case faults.ClassLinkCollapse:
		// 60% collapse of the host-to-GPU DMA path: the flow the prefetch
		// engine hides decoded frames under (DRAM -> VRAM).
		inj.Schedule(faultAt, faultFor, faults.LinkCollapse(mach, mach.DRAM, mach.VRAM, 0.4))
	case faults.ClassDMALoss:
		inj.Schedule(faultAt, faultFor, faults.DMALoss(mach, mach.DRAM, mach.VRAM, 0.35))
	case faults.ClassDeviceStall:
		inj.Schedule(faultAt, faultFor, faults.DeviceStall(mach.GPU))
	case faults.ClassSwitchStorm:
		inj.Schedule(faultAt, faultFor, faults.SwitchStorm(mach.GPU))
	case faults.ClassThermal:
		inj.Schedule(faultAt, faultFor, faults.ThermalExcursion(ensureThermal(mach)))
	case faults.ClassTransport:
		inj.Schedule(faultAt, faultFor, faults.TransportSpike(sess.Emulator.Transport, 8))
	default:
		panic("experiments: unknown fault class " + string(class))
	}
	inj.Arm()

	var latBase, latFault metrics.Distribution
	faultEnd := faultAt + faultFor
	sess.Emulator.Manager.SetObserver(func(at time.Duration, _ svm.Accessor,
		_ svm.RegionID, _ hostsim.Bytes, _ svm.Usage, latency time.Duration) {
		switch {
		case at < faultAt:
			latBase.AddDuration(latency)
		case at < faultEnd:
			latFault.AddDuration(latency)
		}
	})

	cell := RobustnessCell{Emulator: preset.Name, Fault: class}
	finishObs := func() {
		if tr != nil {
			path := cellTracePath(cfg.TracePath, preset.Name, class)
			if err := writeTraceFile(path, tr); err != nil {
				cell.TraceFile = "error: " + err.Error()
			} else {
				cell.TraceFile = path
			}
		}
		if reg != nil {
			cell.MetricsDump = reg.FormatText()
		}
	}
	spec := workload.DefaultSpec(emulator.CatUHDVideo, 0, dur)
	r, err := workload.RunEmerging(sess.Emulator, spec)
	if err != nil {
		finishObs()
		return cell // category unsupported: an empty cell, kept for shape
	}

	atSec, endSec := int(faultAt/time.Second), int(faultEnd/time.Second)
	// Skip the warm-up second before the fault and one settling second
	// after it, so phase means measure steady states.
	cell.BaselineFPS = meanFPSRange(r.PerSecondFPS, 1, atSec)
	cell.FaultFPS = meanFPSRange(r.PerSecondFPS, atSec, endSec)
	cell.RecoveredFPS = meanFPSRange(r.PerSecondFPS, endSec+1, len(r.PerSecondFPS))
	cell.BaselineLatencyMS = latBase.Mean()
	cell.FaultLatencyMS = latFault.Mean()

	if eng := sess.Emulator.Manager.Engine(); eng != nil {
		cell.Suspensions = eng.Suspensions()
	}
	if l := mach.LinkBetween(mach.DRAM, mach.VRAM); l != nil {
		cell.DMARetries = l.DMARetries()
	}
	cell.Stalls = mach.GPU.Stalls()
	cell.FenceTimeouts, cell.DroppedOps = deviceTotals(sess.Emulator)
	finishObs()
	return cell
}

// deviceTotals sums watchdog timeouts and dropped ops across the
// emulator's virtual devices.
func deviceTotals(e *emulator.Emulator) (timeouts, dropped int) {
	for _, d := range e.Devices() {
		s := d.Stats()
		timeouts += s.FenceTimeouts
		dropped += s.DroppedOps
	}
	return timeouts, dropped
}

// ensureThermal returns the machine's thermal model, installing a
// passive one (never throttles on its own, ThrottledSpeed 0.4) on the CPU
// for machines built without thermal modeling, so forced excursions have
// something to force.
func ensureThermal(m *hostsim.Machine) *hostsim.Thermal {
	if m.Thermal == nil {
		th := hostsim.NewThermal(m.Env, 100*time.Millisecond)
		th.ThrottledSpeed = 0.4
		m.Thermal = th
		m.CPU.SetThermal(th)
	}
	return m.Thermal
}

// meanFPSRange averages per-second FPS over [from, to) with bounds
// clamped to the series.
func meanFPSRange(series []float64, from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(series) {
		to = len(series)
	}
	if from >= to {
		return 0
	}
	var sum float64
	for _, v := range series[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

// FormatRobustness renders the degradation table.
func FormatRobustness(r *RobustnessResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness under injected faults — %s, UHD video, fault window [%ds, %ds) of a %ds run\n",
		r.Machine, int(r.FaultAt.Seconds()), int((r.FaultAt + r.FaultFor).Seconds()),
		int(r.Duration.Seconds()))
	fmt.Fprintf(&b, "%-16s %-16s %7s %7s %7s %6s %9s %9s %5s %5s %5s %5s\n",
		"emulator", "fault", "base", "fault", "recov", "rec%",
		"lat-b ms", "lat-f ms", "susp", "wdto", "retry", "drop")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "%-16s %-16s %7.1f %7.1f %7.1f %5.0f%% %9.2f %9.2f %5d %5d %5d %5d\n",
			c.Emulator, c.Fault, c.BaselineFPS, c.FaultFPS, c.RecoveredFPS,
			100*c.Recovery(), c.BaselineLatencyMS, c.FaultLatencyMS,
			c.Suspensions, c.FenceTimeouts, c.DMARetries, c.DroppedOps)
	}
	return b.String()
}
