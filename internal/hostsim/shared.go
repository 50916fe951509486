package hostsim

import (
	"time"

	"repro/internal/sim"
)

// This file couples several guest machines onto one physical host
// (DESIGN.md §12): in a farm, every guest's Machine models its private view
// of the hardware, but the PCIe fabric, the DMA engine behind it, and the
// chassis thermal envelope are shared. SharedHost is the arbiter that runs
// at shard-group barriers — the farm loop's shared-host-resource
// synchronization points — reads each guest's per-window resource draw, and
// applies a fair bandwidth share for the next window via
// Link.SetSharedScale.
//
// The coupling is deliberately window-grained: decisions made at barrier k
// shape window k+1. That one-window lag is what lets each guest run a whole
// window without consulting the others, and it depends only on the event
// streams, so arbitration never perturbs the determinism contract.

// SharedHostConfig parameterizes the arbiter; Resolved fills defaults.
type SharedHostConfig struct {
	// Window is the arbitration quantum; Lookahead hands it to the shard
	// group as its window size. Default 2 ms: fine enough that contention
	// shifts within a frame are visible.
	Window time.Duration
	// PCIeBudget is the physical host's aggregate PCIe bandwidth in
	// bytes/second across every tracked guest link. When the guests'
	// combined demand in a window exceeds it, each guest's PCIe links are
	// scaled by budget/demand for the next window. 0 disables the cap.
	PCIeBudget float64
	// MinScale floors the applied share so a stampede cannot strangle any
	// guest entirely. Default 0.25.
	MinScale float64
	// HeatPerBusySecond, CoolPerSecond, ThrottleAt, ResumeAt, and
	// ThrottledSpeed model the chassis thermal envelope over the guests'
	// combined PCIe busy time, with the same hysteresis shape as the
	// per-machine Thermal model. ThrottleAt 0 disables thermal coupling.
	HeatPerBusySecond float64
	CoolPerSecond     float64
	ThrottleAt        float64
	ResumeAt          float64
	ThrottledSpeed    float64
}

// Resolved returns the config with zero knobs replaced by defaults.
func (c SharedHostConfig) Resolved() SharedHostConfig {
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.MinScale <= 0 {
		c.MinScale = 0.25
	}
	if c.ThrottleAt > 0 {
		if c.ThrottledSpeed <= 0 {
			c.ThrottledSpeed = 0.4
		}
		if c.ResumeAt <= 0 || c.ResumeAt > c.ThrottleAt {
			c.ResumeAt = c.ThrottleAt * 0.9
		}
	}
	return c
}

// sharedLink is one tracked guest link with its last-window counters.
type sharedLink struct {
	l         *Link
	lastBytes Bytes
	lastBusy  time.Duration
}

// SharedHost arbitrates one physical host's PCIe budget and thermal
// envelope across guest machines. Construct with NewSharedHost, then either
// Attach it to a sim.ShardGroup or call Arbitrate from a driver's own
// barrier. All methods run on the goroutine that drives the farm.
type SharedHost struct {
	cfg   SharedHostConfig
	links []sharedLink

	scale     float64 // currently applied share
	heat      float64
	throttled bool

	// obs, when non-nil, receives one callback per arbitration window.
	// stats is the reused callback argument so the enabled path does not
	// allocate either.
	obs   func(*SharedWindowStats)
	stats SharedWindowStats
}

// SharedWindowStats describes one arbitration window for an observer. The
// struct is reused — observers must copy anything they keep. Every field
// derives from virtual time and per-link counters, so the sequence is
// identical for equal seeds.
type SharedWindowStats struct {
	Prev, Now   time.Duration // window bounds (barrier instants)
	DemandBytes Bytes         // combined PCIe bytes the guests moved
	BusyTime    time.Duration // combined PCIe busy time
	Budget      float64       // configured budget, bytes/second (0 = uncapped)
	Scale       float64       // share applied for the next window
	Heat        float64       // thermal level after folding this window
	Throttled   bool          // thermal envelope limiting the host
}

// SetObserver installs (or, with nil, removes) the per-window observer.
// Call before the run; Arbitrate invokes it even when the computed scale is
// unchanged, so observers see every window.
func (sh *SharedHost) SetObserver(fn func(*SharedWindowStats)) { sh.obs = fn }

// NewSharedHost builds an arbiter over the guests' PCIe links (host-to-
// device and device-to-host, in machine order, so enumeration — and
// everything derived from it — is deterministic).
func NewSharedHost(cfg SharedHostConfig, guests ...*Machine) *SharedHost {
	sh := &SharedHost{cfg: cfg.Resolved(), scale: 1}
	for _, m := range guests {
		for _, l := range []*Link{m.LinkBetween(m.DRAM, m.VRAM), m.LinkBetween(m.VRAM, m.DRAM)} {
			if l != nil {
				sh.links = append(sh.links, sharedLink{l: l})
			}
		}
	}
	return sh
}

// Lookahead returns the shard-group window the arbiter needs: its
// arbitration quantum, the resolved Window.
func (sh *SharedHost) Lookahead() time.Duration { return sh.cfg.Window }

// Attach registers the arbiter at the group's barriers.
func (sh *SharedHost) Attach(g *sim.ShardGroup) {
	g.AtBarrier(sh.Arbitrate)
}

// Arbitrate is the barrier hook: fold the window [prev, now] of per-guest
// PCIe draw into the budget and thermal models, and apply the resulting
// share to every tracked link for the next window.
func (sh *SharedHost) Arbitrate(prev, now time.Duration) {
	dt := (now - prev).Seconds()
	if dt <= 0 {
		return
	}
	var deltaBytes Bytes
	var deltaBusy time.Duration
	for i := range sh.links {
		sl := &sh.links[i]
		b, busy := sl.l.BytesMoved(), sl.l.BusyTime()
		deltaBytes += b - sl.lastBytes
		deltaBusy += busy - sl.lastBusy
		sl.lastBytes, sl.lastBusy = b, busy
	}

	scale := 1.0
	if sh.cfg.PCIeBudget > 0 {
		if demand := float64(deltaBytes) / dt; demand > sh.cfg.PCIeBudget {
			scale = sh.cfg.PCIeBudget / demand
		}
	}
	if sh.cfg.ThrottleAt > 0 {
		sh.heat += deltaBusy.Seconds()*sh.cfg.HeatPerBusySecond - dt*sh.cfg.CoolPerSecond
		if sh.heat < 0 {
			sh.heat = 0
		}
		if sh.heat >= sh.cfg.ThrottleAt {
			sh.throttled = true
		} else if sh.heat <= sh.cfg.ResumeAt {
			sh.throttled = false
		}
		if sh.throttled {
			scale *= sh.cfg.ThrottledSpeed
		}
	}
	if scale < sh.cfg.MinScale {
		scale = sh.cfg.MinScale
	}
	if sh.obs != nil {
		sh.stats = SharedWindowStats{
			Prev: prev, Now: now,
			DemandBytes: deltaBytes, BusyTime: deltaBusy,
			Budget: sh.cfg.PCIeBudget, Scale: scale,
			Heat: sh.heat, Throttled: sh.throttled,
		}
		sh.obs(&sh.stats)
	}
	if scale == sh.scale {
		return
	}
	sh.scale = scale
	for i := range sh.links {
		sh.links[i].l.SetSharedScale(scale)
	}
}
