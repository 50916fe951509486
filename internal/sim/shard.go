package sim

import "time"

// This file implements the windowed farm loop (DESIGN.md §12): a ShardGroup
// advances a set of independent environments (one per guest instance) in
// lockstep windows on the calling goroutine and synchronizes them at window
// barriers. A window opens at the earliest pending event across the group
// and spans one lookahead; every environment runs its events inside it in
// turn, then the barrier hooks see every environment at the same instant.
// The hooks are the only place guests interact — the shared-host arbiter
// reads each guest's draw there and sets the next window's link share — so
// the lookahead is the arbitration quantum.
//
// Determinism contract: the window sequence depends only on the event
// streams, each environment's execution inside a window is purely local,
// and environments run in construction order, so a group run is
// byte-identical for equal seeds, and identical to driving each environment
// alone with Env.RunUntil when no hook touches simulation state.

// ShardWindowStats describes one executed window for an observer. The
// struct is reused across windows — observers must copy anything they keep.
// Base/Limit/Lookahead/Final/Events are deterministic; the Wall* fields are
// wall-clock measurements of the loop for attribution only and must never
// feed back into the simulation.
type ShardWindowStats struct {
	Base      Time   // global earliest event time the window opened at
	Limit     Time   // window horizon actually executed to
	Lookahead Time   // configured window size
	Final     bool   // closed inclusively at the run bound
	Events    uint64 // events executed across the group in this window

	WallScan time.Duration // earliest-event scan + window setup
	WallExec time.Duration // every environment running the window
	WallArb  time.Duration // barrier hooks
}

// ShardObserver receives one callback per executed window, after the
// barrier hooks. Observers must not mutate the group or its environments.
type ShardObserver interface {
	ShardWindow(w *ShardWindowStats)
}

// ShardGroup runs a set of independent environments under the windowed
// protocol. Construct with NewShardGroup, drive with RunUntil, and Close
// when done.
type ShardGroup struct {
	envs      []*Env
	lookahead Time
	now       Time
	closed    bool

	hooks []func(prev, now Time)

	// obs, when non-nil, receives per-window telemetry. stats is the reused
	// callback argument, so the disabled path stays branch-only and the
	// enabled path allocates nothing per window.
	obs   ShardObserver
	stats ShardWindowStats
}

// NewShardGroup groups envs for windowed execution. lookahead must be
// positive: it is the window size. shards must be at least 1 and is
// otherwise ignored — every environment runs on the calling goroutine; the
// parameter remains only because the benchmark module still passes a shard
// count.
func NewShardGroup(lookahead Time, shards int, envs ...*Env) *ShardGroup {
	if lookahead <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	if shards < 1 {
		panic("sim: shard count must be >= 1")
	}
	if len(envs) == 0 {
		panic("sim: shard group needs at least one environment")
	}
	seen := make(map[*Env]struct{}, len(envs))
	for _, e := range envs {
		if e == nil {
			panic("sim: nil environment in shard group")
		}
		if _, dup := seen[e]; dup {
			panic("sim: duplicate environment in shard group")
		}
		seen[e] = struct{}{}
	}
	return &ShardGroup{envs: envs, lookahead: lookahead}
}

// SetObserver installs (or, with nil, removes) the per-window observer.
func (g *ShardGroup) SetObserver(o ShardObserver) { g.obs = o }

// AtBarrier registers fn to run at every window barrier, after every
// environment has run the window. prev and now bound the window just
// executed. This is the shared-host-resource synchronization point: PCIe
// budget arbitration, DMA engine accounting, and the thermal envelope read
// per-env state here and apply their decisions to the next window. Hooks
// run in registration order.
func (g *ShardGroup) AtBarrier(fn func(prev, now Time)) {
	if fn == nil {
		panic("sim: AtBarrier with nil hook")
	}
	g.hooks = append(g.hooks, fn)
}

// nextEventAt returns the earliest pending event time across the group.
func (g *ShardGroup) nextEventAt() (Time, bool) {
	var min Time
	have := false
	for _, e := range g.envs {
		if at, ok := e.nextAt(); ok && (!have || at < min) {
			min, have = at, true
		}
	}
	return min, have
}

// RunUntil drives every environment to exactly t under the windowed
// protocol: repeatedly find the global earliest event time T, run every
// environment through the events in [T, T+lookahead), then run the barrier
// hooks. The final window closes at t inclusively, matching Env.RunUntil's
// bound. A panic raised inside any environment surfaces from RunUntil.
func (g *ShardGroup) RunUntil(t Time) {
	if g.closed {
		panic("sim: RunUntil on closed shard group")
	}
	for {
		var scanStart time.Time
		if g.obs != nil {
			scanStart = time.Now()
		}
		T, have := g.nextEventAt()
		if !have || T > t {
			// Nothing left inside the bound: advance every clock to t.
			for _, e := range g.envs {
				if e.now < t {
					e.now = t
				}
			}
			if g.now < t {
				prev := g.now
				g.now = t
				for _, h := range g.hooks {
					h(prev, t)
				}
			}
			return
		}
		limit := T + g.lookahead
		final := limit >= t
		if final {
			limit = t
		}
		var execStart time.Time
		var before uint64
		if g.obs != nil {
			g.stats.Base, g.stats.Limit = T, limit
			g.stats.Lookahead = g.lookahead
			g.stats.Final = final
			before = g.ExecutedEvents()
			execStart = time.Now()
		}
		for _, e := range g.envs {
			e.runWindow(limit, final)
		}
		var arbStart time.Time
		if g.obs != nil {
			g.stats.Events = g.ExecutedEvents() - before
			arbStart = time.Now()
		}
		prev := g.now
		g.now = limit
		for _, h := range g.hooks {
			h(prev, limit)
		}
		if g.obs != nil {
			g.stats.WallScan = execStart.Sub(scanStart)
			g.stats.WallExec = arbStart.Sub(execStart)
			g.stats.WallArb = time.Since(arbStart)
			g.obs.ShardWindow(&g.stats)
		}
		if final {
			return
		}
	}
}

// ExecutedEvents sums the events dispatched across the group's
// environments. Deterministic for equal seeds.
func (g *ShardGroup) ExecutedEvents() uint64 {
	var total uint64
	for _, e := range g.envs {
		total += e.executed
	}
	return total
}

// Close ends the group: a later RunUntil panics. The environments
// themselves are not closed — callers own their lifecycle. Idempotent.
func (g *ShardGroup) Close() { g.closed = true }
