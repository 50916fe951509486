package hostsim

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Thermal models sustained-load thermal throttling of a laptop-class CPU:
// executed work heats the package, idle time cools it, and above the
// throttle threshold the device runs at ThrottledSpeed. This reproduces the
// §5.3 observation that video apps on the middle-end laptop start near 30
// FPS and degrade within a minute once the package saturates.
type Thermal struct {
	env *sim.Env

	// HeatPerBusySecond is the temperature rise (°C) per second of
	// execution-unit busy time.
	HeatPerBusySecond float64
	// CoolPerSecond is the passive cooling rate (°C per wall second).
	CoolPerSecond float64
	// Ambient is the idle temperature; the model never cools below it.
	Ambient float64
	// ThrottleAt is the temperature above which throttling engages.
	ThrottleAt float64
	// ResumeAt is the temperature below which full speed resumes
	// (hysteresis; must be <= ThrottleAt).
	ResumeAt float64
	// ThrottledSpeed is the speed factor while throttled, in (0,1).
	ThrottledSpeed float64

	temp      float64
	throttled bool
	forced    bool // fault-layer override: throttle regardless of temperature
	lastTick  time.Duration
	pending   time.Duration // busy time accumulated since last tick

	tr        *obs.Tracer
	tk        obs.Track
	tempGauge *obs.Gauge
}

// NewThermal returns a thermal model ticking every interval of virtual time.
// A nil-safe zero configuration never throttles; callers set the exported
// fields before the first tick.
func NewThermal(env *sim.Env, interval time.Duration) *Thermal {
	t := &Thermal{env: env, ThrottledSpeed: 1, Ambient: 40}
	t.temp = t.Ambient
	if t.tr = env.Tracer(); t.tr != nil {
		t.tk = t.tr.Track("thermal")
	}
	t.tempGauge = env.Metrics().Gauge("thermal.temp_c")
	var tick func()
	tick = func() {
		t.step(interval)
		env.After(interval, tick)
	}
	env.After(interval, tick)
	return t
}

// AddWork reports busy execution time to the model.
func (t *Thermal) AddWork(d time.Duration) { t.pending += d }

func (t *Thermal) step(interval time.Duration) {
	heat := t.HeatPerBusySecond * t.pending.Seconds()
	cool := t.CoolPerSecond * interval.Seconds()
	t.pending = 0
	t.temp += heat - cool
	if t.temp < t.Ambient {
		t.temp = t.Ambient
	}
	wasThrottled := t.throttled
	if !t.throttled && t.temp >= t.ThrottleAt && t.ThrottleAt > 0 {
		t.throttled = true
	}
	if t.throttled && t.temp <= t.ResumeAt {
		t.throttled = false
	}
	if t.tr != nil {
		t.tr.Count(t.tk, "temp_c", t.temp)
		if t.throttled && !wasThrottled {
			t.tr.Instant(t.tk, "throttle")
		}
		if !t.throttled && wasThrottled {
			t.tr.Instant(t.tk, "resume")
		}
	}
	t.tempGauge.Set(t.temp)
}

// Temperature returns the modeled package temperature.
func (t *Thermal) Temperature() float64 { return t.temp }

// Throttled reports whether throttling is engaged (thermally or forced).
func (t *Thermal) Throttled() bool { return t.throttled || t.forced }

// ForceExcursion overrides the temperature model: while on, the device runs
// at ThrottledSpeed regardless of the modeled package temperature. The fault
// layer uses this for injected throttle excursions; the thermal state keeps
// evolving underneath, so clearing the excursion returns to whatever the
// temperature dictates.
func (t *Thermal) ForceExcursion(on bool) {
	if t.tr != nil && on != t.forced {
		if on {
			t.tr.Instant(t.tk, "forced-excursion")
		} else {
			t.tr.Instant(t.tk, "excursion-clear")
		}
	}
	t.forced = on
}

// SpeedFactor returns the current speed multiplier.
func (t *Thermal) SpeedFactor() float64 {
	if t.Throttled() {
		return t.ThrottledSpeed
	}
	return 1
}
