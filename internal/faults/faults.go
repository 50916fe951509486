// Package faults is the deterministic fault-injection subsystem: seeded,
// scriptable schedules of hardware and transport faults driven entirely by
// virtual time. Each fault is a timed window — at t = X, for duration D —
// over one injection target:
//
//   - link-bandwidth collapse and DMA loss (hostsim.Link)
//   - device stalls and context-switch storms (hostsim.Device)
//   - forced thermal-throttle excursions (hostsim.Thermal)
//   - virtio kick/IRQ latency spikes (virtio.CostScale)
//
// Fault-injection-driven testing is how virtual platforms earn trust: the
// prefetch engine's robustness corner cases (§3.3 — suspension on
// consecutive mispredictions or per-path bandwidth collapse) exist exactly
// for these regimes, and nothing in an ordinary workload ever drives them.
// An Injector bound to a prefetch engine also feeds the collapse signal
// straight into Engine.ObserveBandwidth when a link fault opens, seeding
// the path's nominal bandwidth first, so graceful degradation (prefetch
// suspension, demand-fetch fallback) engages the moment the fault does
// rather than waiting for the next organic coherence copy.
//
// Determinism: the injector owns a seeded RNG (used only for DMA loss
// decisions inside the single-threaded simulation), windows open and close
// via sim timers, and the event log records every transition in virtual
// time. Equal seeds and schedules produce bit-identical runs.
package faults

import (
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// Class names a fault category; one schedule can mix classes freely.
type Class string

// The supported fault classes.
const (
	ClassLinkCollapse Class = "link-collapse"
	ClassDMALoss      Class = "dma-loss"
	ClassDeviceStall  Class = "device-stall"
	ClassSwitchStorm  Class = "switch-storm"
	ClassThermal      Class = "thermal-throttle"
	ClassTransport    Class = "transport-spike"
)

// Classes returns every fault class in canonical order, for experiment
// sweeps.
func Classes() []Class {
	return []Class{
		ClassLinkCollapse, ClassDMALoss, ClassDeviceStall,
		ClassSwitchStorm, ClassThermal, ClassTransport,
	}
}

// Fault is one injectable fault. Implementations live in this package;
// inject and clear run in timer context at the window edges.
type Fault interface {
	Class() Class
	// Target names what the fault hits (a link, device, or transport).
	Target() string
	inject(i *Injector, now time.Duration)
	clear(i *Injector, now time.Duration)
}

// window is one scheduled fault occurrence.
type window struct {
	at, dur time.Duration
	fault   Fault
}

// Injector owns a schedule of fault windows over one simulation.
type Injector struct {
	env    *sim.Env
	rng    *rand.Rand
	engine *prefetch.Engine // optional; see BindEngine

	windows []window
	armed   bool

	tr  *obs.Tracer
	tk  obs.Track
	ctr *obs.Counter
}

// NewInjector returns an injector for env. seed drives every probabilistic
// fault decision (currently DMA loss); schedules themselves are exact.
func NewInjector(env *sim.Env, seed int64) *Injector {
	i := &Injector{env: env, rng: rand.New(rand.NewSource(seed))}
	if i.tr = env.Tracer(); i.tr != nil {
		i.tk = i.tr.Track("faults")
	}
	i.ctr = env.Metrics().Counter("faults.transitions")
	return i
}

// BindEngine connects the injector to a prefetch engine, enabling the
// direct degradation signal for link faults: on window open the engine's
// per-path max is seeded with the link's nominal bandwidth and the
// collapsed bandwidth is fed to ObserveBandwidth, so suspension triggers
// immediately (§3.3) instead of on the next organic DMA push.
func (i *Injector) BindEngine(e *prefetch.Engine) { i.engine = e }

// Schedule adds a fault window opening at virtual time at (measured from
// Arm) and closing dur later. Panics after Arm — schedules are immutable
// once armed, which is what keeps runs reproducible.
func (i *Injector) Schedule(at, dur time.Duration, f Fault) {
	if i.armed {
		panic("faults: Schedule after Arm")
	}
	if at < 0 || dur <= 0 {
		panic("faults: fault window must have non-negative start and positive duration")
	}
	i.windows = append(i.windows, window{at: at, dur: dur, fault: f})
}

// Arm registers every window's open/close transitions with the simulation
// clock. Call once, before driving the environment.
func (i *Injector) Arm() {
	if i.armed {
		panic("faults: double Arm")
	}
	i.armed = true
	for _, w := range i.windows {
		w := w
		var openedAt time.Duration
		i.env.After(w.at, func() {
			now := i.env.Now()
			openedAt = now
			if i.tr != nil {
				i.tr.Instant(i.tk, "inject:"+string(w.fault.Class()))
			}
			i.ctr.Inc()
			w.fault.inject(i, now)
		})
		i.env.After(w.at+w.dur, func() {
			now := i.env.Now()
			if i.tr != nil {
				// One span per fault window, stamped retroactively at close
				// so its duration reflects the actual open interval.
				i.tr.SpanAt(i.tk, string(w.fault.Class())+" "+w.fault.Target(),
					openedAt, now-openedAt)
				i.tr.Instant(i.tk, "clear:"+string(w.fault.Class()))
			}
			i.ctr.Inc()
			w.fault.clear(i, now)
		})
	}
}
