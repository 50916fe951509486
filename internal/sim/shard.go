package sim

import (
	"fmt"
	"sort"
	"time"
)

// This file implements the conservative parallel scheduler (DESIGN.md §12):
// a ShardGroup partitions independent environments (one per guest instance)
// into shards, each advancing through its own PR 1 event queue, synchronized
// only at window barriers. The window horizon is derived from the group's
// lookahead — the minimum cross-shard latency (link service floors, VM-exit
// cost), below which no shard can affect another — so within a window the
// shards are causally independent and can run on separate cores.
//
// Determinism contract: output is byte-identical at every shard count. The
// window sequence depends only on the global earliest event time (not on the
// partition), each environment's execution inside a window is purely local,
// and cross-shard mail is delivered at barriers in a total order — by
// (delivery time, sending environment index, send order) — before any
// target event at the same instant is created, so sequence numbers land
// identically however the envs were sharded.

// mail is one cross-shard message: fn runs in the target environment's
// scheduler context at time at. bytes is observability payload only — it
// never shapes delivery.
type mail struct {
	at    Time
	to    int
	bytes int64
	fn    func()
}

// ShardLoad is one shard's share of a window: virtual events executed and
// the wall-clock time its goroutine spent executing them. Events is
// deterministic; Compute is a host measurement and must never feed back
// into the simulation.
type ShardLoad struct {
	Events  uint64
	Compute time.Duration
}

// ShardWindowStats describes one executed window for an observer. The
// struct is reused across windows — observers must copy anything they keep.
// Base/Limit/Lookahead/Final/Mails/MailBytes and every Shards[i].Events are
// deterministic (identical at every shard count for equal seeds); the Wall*
// fields and Shards[i].Compute are wall-clock measurements for stall
// attribution only.
type ShardWindowStats struct {
	Base      Time // global earliest event time the window opened at
	Limit     Time // window horizon actually executed to
	Lookahead Time // configured conservative horizon
	Final     bool // closed inclusively at the run bound

	Mails     int   // cross-shard messages delivered at this barrier
	MailBytes int64 // observability payload bytes across those messages

	WallScan time.Duration // coordinator: global min-scan + window setup
	WallExec time.Duration // coordinator: dispatch through last shard parked
	WallArb  time.Duration // coordinator: mail delivery + barrier hooks

	Shards []ShardLoad // per-shard load, indexed by shard
}

// ShardObserver receives one callback per executed window, on the
// coordinating goroutine, after mail delivery and barrier hooks. Observers
// must not mutate the group or its environments.
type ShardObserver interface {
	ShardWindow(w *ShardWindowStats)
}

// windowReq asks a worker to advance its shard's environments to limit
// (inclusive of events at the horizon only for the final window of a
// bounded run, mirroring RunUntil's closed bound).
type windowReq struct {
	limit Time
	final bool
}

// ShardGroup runs a set of independent environments under the conservative
// windowed protocol. Construct with NewShardGroup, drive with RunUntil, and
// Close when done (Close stops the worker goroutines, not the
// environments). The group itself must be driven from a single goroutine.
type ShardGroup struct {
	envs      []*Env
	shards    [][]*Env
	lookahead Time
	now       Time

	hooks []func(prev, now Time)

	// outbox[i] is written only by the goroutine running envs[i]'s shard
	// during a window; the coordinator drains every outbox at the barrier
	// (after all workers parked, so no data race).
	outbox [][]mail

	start  []chan windowReq // one per extra worker (shards beyond the first)
	done   chan struct{}
	closed bool
	// faults[s] holds the panic raised on worker s during the last window
	// (a callback's, re-raised by runWindow), for the coordinator to
	// re-raise at the barrier. Each window overwrites the worker's slot.
	faults []any

	// obs, when non-nil, receives per-window scheduler telemetry. stats is
	// the reused callback argument; workers write only their own
	// stats.Shards slot during a window and the coordinator reads at the
	// barrier (the channel handshake orders both), so instrumentation is
	// race-free and the disabled path stays zero-alloc.
	obs   ShardObserver
	stats ShardWindowStats
}

// NewShardGroup partitions envs round-robin into at most shards shards.
// lookahead must be positive: it is the conservative window size, and the
// minimum cross-shard Send delay. One shard degenerates to a serial loop
// with no worker goroutines; shard counts above len(envs) are clamped.
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
	if shards > len(envs) {
		shards = len(envs)
	}
	g := &ShardGroup{
		envs:      envs,
		shards:    make([][]*Env, shards),
		lookahead: lookahead,
		outbox:    make([][]mail, len(envs)),
	}
	for i, e := range envs {
		s := i % shards
		g.shards[s] = append(g.shards[s], e)
	}
	if shards > 1 {
		g.done = make(chan struct{}, shards-1)
		g.faults = make([]any, shards)
		for s := 1; s < shards; s++ {
			ch := make(chan windowReq)
			g.start = append(g.start, ch)
			go g.worker(s, g.shards[s], ch)
		}
	}
	return g
}

// SetObserver installs (or, with nil, removes) the per-window observer.
// Call before RunUntil; the observer is read by worker goroutines during a
// run, so installing one mid-run is a race.
func (g *ShardGroup) SetObserver(o ShardObserver) {
	g.obs = o
	if o != nil && len(g.stats.Shards) != len(g.shards) {
		g.stats.Shards = make([]ShardLoad, len(g.shards))
	}
}

// worker advances one shard's environments window by window. Each
// environment runs sequentially within the shard; the parallelism is across
// shards. The channel handshake gives the coordinator a happens-before edge
// around every window, so barrier-time reads of env state are race-free.
func (g *ShardGroup) worker(s int, envs []*Env, start <-chan windowReq) {
	for req := range start {
		g.faults[s] = g.workerWindow(s, envs, req)
		g.done <- struct{}{}
	}
}

// workerWindow runs one window on a worker goroutine and returns the panic
// it raised, if any, so it reaches the coordinator instead of killing the
// program.
func (g *ShardGroup) workerWindow(s int, envs []*Env, req windowReq) (fault any) {
	defer func() { fault = recover() }()
	g.runShardWindow(s, envs, req.limit, req.final)
	return nil
}

// runShardWindow advances one shard's environments through a window,
// recording the shard's load when an observer is installed. The fast path
// (no observer) is branch-only: no timing, no allocation.
func (g *ShardGroup) runShardWindow(s int, envs []*Env, limit Time, final bool) {
	if g.obs == nil {
		for _, e := range envs {
			e.runWindow(limit, final)
		}
		return
	}
	wall := time.Now()
	var before uint64
	for _, e := range envs {
		before += e.executed
	}
	for _, e := range envs {
		e.runWindow(limit, final)
	}
	var after uint64
	for _, e := range envs {
		after += e.executed
	}
	ld := &g.stats.Shards[s]
	ld.Events = after - before
	ld.Compute = time.Since(wall)
}

// Shards returns the number of shards actually running (after clamping).
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Lookahead returns the conservative window size.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Now returns the group's barrier clock: every environment has advanced to
// at least this instant.
func (g *ShardGroup) Now() Time { return g.now }

// AtBarrier registers fn to run on the coordinating goroutine at every
// window barrier, after all shards have parked and cross-shard mail has
// been delivered. prev and now bound the window just executed. This is the
// shared-host-resource synchronization point: PCIe budget arbitration, DMA
// engine accounting, and the thermal envelope read per-env state here and
// apply their decisions to the next window. Hooks run in registration
// order.
func (g *ShardGroup) AtBarrier(fn func(prev, now Time)) {
	if fn == nil {
		panic("sim: AtBarrier with nil hook")
	}
	g.hooks = append(g.hooks, fn)
}

// Send schedules fn to run in environment to's scheduler context delay from
// environment from's current instant. It must be called from code executing
// inside environment from (its shard's goroutine owns the outbox), and
// delay must be at least the group's lookahead — a shorter delay could land
// inside the window being executed, which the conservative protocol cannot
// honor. Delivery order is deterministic regardless of sharding.
func (g *ShardGroup) Send(from, to int, delay Time, fn func()) {
	g.SendSized(from, to, delay, 0, fn)
}

// SendSized is Send with an observability payload size attached: bytes is
// reported to the group's ShardObserver as cross-shard mailbox volume but
// never shapes delivery, so it cannot perturb determinism.
func (g *ShardGroup) SendSized(from, to int, delay Time, bytes int64, fn func()) {
	if fn == nil {
		panic("sim: Send with nil callback")
	}
	if from < 0 || from >= len(g.envs) || to < 0 || to >= len(g.envs) {
		panic(fmt.Sprintf("sim: Send %d -> %d out of range", from, to))
	}
	if delay < g.lookahead {
		panic(fmt.Sprintf("sim: Send delay %v below lookahead %v", delay, g.lookahead))
	}
	g.outbox[from] = append(g.outbox[from], mail{at: g.envs[from].Now() + delay, to: to, bytes: bytes, fn: fn})
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

// runShards executes one window on every shard: the first shard on the
// coordinating goroutine, the rest on their workers. The barrier runs
// deferred, so even when shard 0 panics no worker is still executing by the
// time the panic reaches the caller.
func (g *ShardGroup) runShards(limit Time, final bool) {
	req := windowReq{limit: limit, final: final}
	for _, ch := range g.start {
		ch <- req
	}
	defer g.awaitWorkers()
	g.runShardWindow(0, g.shards[0], limit, final)
}

// awaitWorkers waits for every worker to finish the window, then re-raises
// the lowest-numbered worker's panic, if any.
func (g *ShardGroup) awaitWorkers() {
	for range g.start {
		<-g.done
	}
	for _, r := range g.faults {
		if r != nil {
			panic(r)
		}
	}
}

// deliver drains every outbox into the target environments. Messages are
// ordered by (delivery time, sending env index, send order) — the sort is
// stable over a by-sender concatenation — so event sequence numbers in the
// targets are independent of the partition. Delivery times are at or after
// the barrier instant by the Send delay floor, so pushes never land in the
// past.
func (g *ShardGroup) deliver() {
	var msgs []mail
	for i := range g.outbox {
		msgs = append(msgs, g.outbox[i]...)
		g.outbox[i] = g.outbox[i][:0]
	}
	if len(msgs) == 0 {
		return
	}
	sort.SliceStable(msgs, func(a, b int) bool { return msgs[a].at < msgs[b].at })
	for _, m := range msgs {
		g.envs[m.to].push(event{at: m.at, fn: m.fn})
	}
	if g.obs != nil {
		g.stats.Mails = len(msgs)
		for _, m := range msgs {
			g.stats.MailBytes += m.bytes
		}
	}
}

// RunUntil drives every environment to exactly t under the windowed
// protocol: repeatedly find the global earliest event time T, execute all
// events in [T, T+lookahead) shard-parallel, then synchronize — deliver
// cross-shard mail and run barrier hooks. The final window closes at t
// inclusively, matching Env.RunUntil's bound.
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
		if g.obs != nil {
			g.stats.Base, g.stats.Limit = T, limit
			g.stats.Lookahead = g.lookahead
			g.stats.Final = final
			g.stats.Mails, g.stats.MailBytes = 0, 0
			execStart = time.Now()
		}
		g.runShards(limit, final)
		var arbStart time.Time
		if g.obs != nil {
			arbStart = time.Now()
		}
		g.deliver()
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
// environments. Deterministic for equal seeds at any shard count.
func (g *ShardGroup) ExecutedEvents() uint64 {
	var total uint64
	for _, e := range g.envs {
		total += e.executed
	}
	return total
}

// Close stops the worker goroutines. The environments themselves are not
// closed — callers own their lifecycle. Idempotent.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.start {
		close(ch)
	}
	g.start = nil
}
