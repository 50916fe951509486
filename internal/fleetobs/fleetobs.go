// Package fleetobs is the fleet observability layer over the windowed farm
// loop (DESIGN.md §13, building on the §12 shard group and the §8 obs
// infrastructure). It watches three planes at once: the window loop
// (per-window advance span and event count, lookahead utilization),
// shared-host arbitration (per-window demand vs budget, applied scale),
// and per-tenant QoS (FPS vs a configurable floor, motion-to-photon vs
// SLO, demand-fetch tail latency from a fixed-bucket log-scale histogram),
// folding them into Perfetto counter tracks, violation spans, a wall-clock
// split of the loop's host time, and a machine-readable fleet report.
//
// Determinism contract: the layer is observe-only — with a Fleet attached,
// simulation results are byte-identical to a run without one, and the
// disabled path (no Fleet constructed) costs a nil check and zero
// allocations at every hook. Report derives exclusively from virtual-time
// quantities and integer bucket counts, so its text and JSON renderings are
// byte-identical for equal seeds; every wall-clock measurement (the loop's
// scan, execution and arbitration spans) is quarantined in StallReport,
// which is never deterministic.
package fleetobs

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes a Fleet.
type Config struct {
	// Tenants declares the guests in fleet order (one per environment).
	Tenants []TenantConfig
	// Tracer, when non-nil, receives fleet counter tracks (fleet:sched,
	// fleet:host) and per-tenant violation spans (tenant:<name>). The
	// fleet owns the tracer's clock: it binds SetNow to the barrier clock.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives the window-loop sanity metric
	// (shard.window.count).
	Registry *obs.Registry
}

// Fleet aggregates window-loop, shared-host, and tenant telemetry for one
// farm run. Construct with New, wire tenants into their guests (emulator
// FrameObs, svm SetFetchObserver), Attach to the group and arbiter, drive
// the run, then Finalize and render Report/StallReport.
//
// Concurrency: every hook runs on the goroutine that drives the group, so
// the layer needs no locks.
type Fleet struct {
	cfg     Config
	tenants []*Tenant

	// Window-loop plane. Virtual-time fields are deterministic; wall*
	// fields are host measurements.
	windows      int
	finalWindows int
	advanced     time.Duration
	horizon      time.Duration
	events       uint64
	wallScan     time.Duration
	wallExec     time.Duration
	wallArb      time.Duration

	// Shared-host plane (all deterministic).
	hostWindows  int
	hostDemand   hostsim.Bytes
	hostBusy     time.Duration
	hostScaleSum float64
	hostMinScale float64

	now time.Duration // fleet barrier clock; drives the tracer

	schedTk, hostTk obs.Track
}

// New builds a Fleet over the configured tenants. A nil-tracer,
// nil-registry config is valid: the fleet then only aggregates.
func New(cfg Config) *Fleet {
	f := &Fleet{cfg: cfg, hostMinScale: 1}
	for i, tc := range cfg.Tenants {
		f.tenants = append(f.tenants, newTenant(tc, i))
	}
	tr := cfg.Tracer
	f.schedTk = tr.Track("fleet:sched")
	f.hostTk = tr.Track("fleet:host")
	if tr != nil {
		for _, t := range f.tenants {
			t.track = tr.Track("tenant:" + t.cfg.Name)
		}
		tr.SetNow(func() time.Duration { return f.now })
	}
	cfg.Registry.Count("shard.window.count", &f.windows)
	return f
}

// Tenant returns the i'th tenant, for wiring into its guest's hooks.
func (f *Fleet) Tenant(i int) *Tenant { return f.tenants[i] }

// Tracer returns the fleet trace sink (nil when tracing is off).
func (f *Fleet) Tracer() *obs.Tracer { return f.cfg.Tracer }

// Attach registers the fleet as the group's shard observer and, when sh is
// non-nil, as the shared host's window observer.
func (f *Fleet) Attach(g *sim.ShardGroup, sh *hostsim.SharedHost) {
	g.SetObserver(f)
	if sh != nil {
		sh.SetObserver(f.HostWindow)
	}
}

// ShardWindow implements sim.ShardObserver: fold one executed window into
// the window-loop plane and emit its counter samples.
func (f *Fleet) ShardWindow(w *sim.ShardWindowStats) {
	f.now = w.Limit
	f.windows++
	if w.Final {
		f.finalWindows++
	}
	adv := w.Limit - w.Base
	f.advanced += adv
	f.horizon += w.Lookahead
	f.events += w.Events
	f.wallScan += w.WallScan
	f.wallExec += w.WallExec
	f.wallArb += w.WallArb
	if tr := f.cfg.Tracer; tr != nil {
		tr.Count(f.schedTk, "advance_us", float64(adv)/1e3)
		util := 0.0
		if w.Lookahead > 0 {
			util = float64(adv) / float64(w.Lookahead)
		}
		tr.Count(f.schedTk, "lookahead_util", util)
		tr.Count(f.schedTk, "events", float64(w.Events))
	}
}

// HostWindow is the shared-host observer hook: fold one arbitration window
// into the host plane and emit its counter samples. It runs in a barrier
// hook, before ShardWindow, so it stamps its samples at the window's own
// barrier instant.
func (f *Fleet) HostWindow(w *hostsim.SharedWindowStats) {
	f.now = w.Now
	f.hostWindows++
	f.hostDemand += w.DemandBytes
	f.hostBusy += w.BusyTime
	f.hostScaleSum += w.Scale
	if w.Scale < f.hostMinScale {
		f.hostMinScale = w.Scale
	}
	if tr := f.cfg.Tracer; tr != nil {
		dt := (w.Now - w.Prev).Seconds()
		gbps := 0.0
		if dt > 0 {
			gbps = float64(w.DemandBytes) / dt / 1e9
		}
		tr.Count(f.hostTk, "demand_gbps", gbps)
		tr.Count(f.hostTk, "scale", w.Scale)
	}
}

// Finalize closes the run at virtual instant end: it emits each tenant's
// violation spans to the tracer. Call once, after the
// group has finished; Report and StallReport remain valid afterwards.
func (f *Fleet) Finalize(end time.Duration) {
	f.now = end
	tr := f.cfg.Tracer
	if tr == nil {
		return
	}
	for _, t := range f.tenants {
		t.emitSpans(tr, end)
	}
}
