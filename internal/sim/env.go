package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/prof"
)

// Time is a point on the simulation's virtual clock, expressed as the
// duration elapsed since the simulation started.
type Time = time.Duration

// maxTime is the unbounded run limit of Run and Step.
const maxTime = Time(math.MaxInt64)

// noStop is the dispatch stop count of every run but Step: executed never
// reaches it.
const noStop = ^uint64(0)

// event is a scheduled occurrence: either the resumption of a parked process
// or a callback executed in scheduler context. Events are plain values,
// stored inline in the scheduler's 4-ary heap and same-instant FIFO ring, so
// steady-state scheduling allocates nothing.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	proc *Proc  // non-nil: resume this process
	fn   func() // non-nil: run this callback in scheduler context
	tmr  *timerRec
}

// eventBefore is the scheduling order: earliest timestamp first, FIFO within
// one instant.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerRec is the cancellation record behind a Timer handle. Records are
// recycled through the Env's free list; the generation counter invalidates
// stale handles to recycled records.
type timerRec struct {
	gen       uint64
	cancelled bool
	fn        func()
	next      *timerRec // free-list link
}

// Timer is a handle on a pending AfterFunc callback.
type Timer struct {
	env *Env
	rec *timerRec
	gen uint64
}

// Stop cancels the callback, reporting whether it was still pending. A
// stopped callback never runs; its closure is released immediately and the
// queue slot is reclaimed lazily as the scheduler reaches it.
func (t Timer) Stop() bool {
	if t.rec == nil || t.rec.gen != t.gen || t.rec.cancelled {
		return false
	}
	t.rec.cancelled = true
	t.rec.fn = nil
	t.env.dead++
	return true
}

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of live processes. An Env is not safe for concurrent use; all calls
// must come either from process context, from a callback, or from the single
// goroutine driving Run/RunUntil/Step. Callbacks may execute on a process's
// coroutine (see dispatch), but never concurrently with anything else.
//
// The event queue is two structures: a 4-ary min-heap of future events and a
// FIFO ring for events scheduled at the current instant (zero-length
// sleeps, zero-delay wakeups), which bypass the heap entirely. Heap entries
// at the current instant always predate — and therefore run before — every
// ring entry, so the combined order is exactly the (timestamp, sequence)
// order a single heap would produce.
type Env struct {
	now      Time
	heap     []event // future events, 4-ary min-heap by (at, seq)
	fifo     []event // events at the current instant, FIFO from fifoHead
	fifoHead int
	seq      uint64
	dead     int // stopped timers still buried in the queues
	rng      *rand.Rand
	current  *Proc // process currently executing, if any
	closed   bool

	// carriers holds every process coroutine in creation order;
	// carrierFree holds those with no process assigned.
	carriers    []*carrier
	carrierFree []*carrier

	// The active run's bound, set by drive: dispatch pops events at or
	// before limit (strictly before when !inclusive) and stops once
	// executed reaches stopAt. running marks a run in progress; hand is
	// how the dispatch on a process coroutine left the baton when it
	// yielded; fault carries a callback panic caught on a process coroutine
	// back to the driver.
	limit     Time
	inclusive bool
	stopAt    uint64
	running   bool
	hand      handoff
	fault     any
	resumes   uint64 // coroutine resumes by drive, for schedEvery

	timerFree  *timerRec // recycled cancellation records
	waiterFree *waiter   // recycled park registrations

	// executed counts events dispatched, the simulator-throughput
	// numerator the shardscale farm reports as events/s.
	executed uint64
	// closeHooks run at the end of Close, after processes unwind and the
	// queues are discarded — the point where external resources pinned by
	// aborted processes (in-flight DMA completion fences) can be released.
	closeHooks []func()

	// Observability attachments, both optional (nil = disabled). They live
	// on the Env so every subsystem constructed against it finds them
	// without signature changes; the scheduler itself never touches them.
	tracer   *obs.Tracer
	metrics  *obs.Registry
	profiler *prof.Profiler
}

// NewEnv returns a fresh environment whose clock reads zero. The seed fixes
// the environment's random stream; equal seeds give bit-identical runs.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random stream.
func (e *Env) Rand() *rand.Rand { return e.rng }

// SetTracer attaches a span tracer (nil disables tracing) and binds its
// clock to this environment's virtual time. Attach before constructing
// subsystems: they capture the tracer at construction.
func (e *Env) SetTracer(t *obs.Tracer) {
	e.tracer = t
	t.SetNow(func() time.Duration { return e.now })
}

// Tracer returns the attached tracer, nil when tracing is disabled.
func (e *Env) Tracer() *obs.Tracer { return e.tracer }

// SetMetrics attaches a metrics registry (nil disables metrics). Attach
// before constructing subsystems: they create their instruments at
// construction.
func (e *Env) SetMetrics(r *obs.Registry) { e.metrics = r }

// Metrics returns the attached registry, nil when metrics are disabled.
func (e *Env) Metrics() *obs.Registry { return e.metrics }

// SetProfiler attaches a critical-path profiler (nil disables profiling)
// and binds its clock to this environment's virtual time. Like SetTracer,
// attach before constructing subsystems: they capture the profiler at
// construction.
func (e *Env) SetProfiler(pf *prof.Profiler) {
	e.profiler = pf
	pf.SetNow(func() time.Duration { return e.now })
}

// Profiler returns the attached profiler, nil when profiling is disabled.
func (e *Env) Profiler() *prof.Profiler { return e.profiler }

// schedule inserts an event at absolute time at (clamped to now).
func (e *Env) schedule(at Time, p *Proc, fn func()) {
	e.push(event{at: at, proc: p, fn: fn})
}

func (e *Env) push(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	ev.seq = e.seq
	e.seq++
	if ev.at == e.now {
		// Same-instant fast path: the ring preserves FIFO order and skips
		// the heap's sift entirely.
		e.fifo = append(e.fifo, ev)
		return
	}
	e.heapPush(ev)
}

// After schedules fn to run in scheduler context d from now. It may be called
// from process context or from outside the simulation.
func (e *Env) After(d Time, fn func()) {
	if fn == nil {
		panic("sim: After with nil callback")
	}
	e.schedule(e.now+d, nil, fn)
}

// AfterFunc schedules fn like After and returns a Timer that can cancel it.
// The cancellation record comes from a free list, so the steady-state
// schedule/fire/stop cycle does not allocate.
func (e *Env) AfterFunc(d Time, fn func()) Timer {
	if fn == nil {
		panic("sim: AfterFunc with nil callback")
	}
	rec := e.allocTimer()
	rec.fn = fn
	e.push(event{at: e.now + d, tmr: rec})
	return Timer{env: e, rec: rec, gen: rec.gen}
}

func (e *Env) allocTimer() *timerRec {
	if r := e.timerFree; r != nil {
		e.timerFree = r.next
		r.next = nil
		return r
	}
	return &timerRec{}
}

// releaseTimer recycles a record once its event leaves the queue, bumping
// the generation so outstanding handles go stale.
func (e *Env) releaseTimer(r *timerRec) {
	r.gen++
	r.cancelled = false
	r.fn = nil
	r.next = e.timerFree
	e.timerFree = r
}

// getWaiter recycles or allocates a park registration.
func (e *Env) getWaiter(p *Proc) *waiter {
	if w := e.waiterFree; w != nil {
		e.waiterFree = w.next
		w.p, w.woke, w.timedOut, w.need, w.next = p, false, false, 0, nil
		return w
	}
	return &waiter{p: p}
}

// putWaiter returns a registration to the free list. Callers must guarantee
// no wait list or timer closure still references it.
func (e *Env) putWaiter(w *waiter) {
	w.p = nil
	w.next = e.waiterFree
	e.waiterFree = w
}

// prune discards stopped timer events sitting at the head of either queue so
// peeks and pops only ever see live events. With no stopped timers buried
// (the overwhelmingly common case) it is a single counter check.
func (e *Env) prune() {
	if e.dead == 0 {
		return
	}
	for e.fifoHead < len(e.fifo) {
		ev := &e.fifo[e.fifoHead]
		if ev.tmr == nil || !ev.tmr.cancelled {
			break
		}
		e.releaseTimer(ev.tmr)
		e.dead--
		*ev = event{}
		e.fifoHead++
	}
	if e.fifoHead == len(e.fifo) && len(e.fifo) > 0 {
		e.fifo = e.fifo[:0]
		e.fifoHead = 0
	}
	for len(e.heap) > 0 && e.heap[0].tmr != nil && e.heap[0].tmr.cancelled {
		ev := e.heapPop()
		e.releaseTimer(ev.tmr)
		e.dead--
	}
}

// pop removes the earliest live event from pruned, non-empty queues. Heap
// entries at the current instant carry smaller sequence numbers than
// anything in the ring (they were pushed before the clock reached now), so
// they drain first.
func (e *Env) pop() event {
	if e.fifoHead < len(e.fifo) {
		if len(e.heap) > 0 && e.heap[0].at <= e.now {
			return e.heapPop()
		}
		ev := e.fifo[e.fifoHead]
		e.fifo[e.fifoHead] = event{}
		e.fifoHead++
		if e.fifoHead == len(e.fifo) {
			e.fifo = e.fifo[:0]
			e.fifoHead = 0
		}
		return ev
	}
	return e.heapPop()
}

// nextAt returns the timestamp of the earliest live event.
func (e *Env) nextAt() (Time, bool) {
	e.prune()
	if e.fifoHead < len(e.fifo) {
		return e.now, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// handoff is how dispatch left the baton.
type handoff int

const (
	batonDone   handoff = iota // the run bound was reached: control returns to the driver
	batonKept                  // the next event resumes the dispatching process itself
	batonPassed                // another process is current: the driver resumes it
)

// schedEvery is how many coroutine resumes drive makes between visits to
// the Go scheduler. A coroutine switch never enters the scheduler, so a
// busy run would otherwise starve the runtime's own goroutines: GC mark
// workers would wait for sysmon's 10 ms preemption while allocation runs
// past the heap goal and the mutators do the marking as assists. 256
// resumes are about 0.1 ms of simulation.
const schedEvery = 256

// drive is the driver side of every run: it installs the bound, dispatches
// on the calling goroutine, and resumes process coroutines for as long as
// the baton passes between them. It is the only one to resume a carrier:
// a process that parks or finishes dispatches on, records the handoff in
// e.hand and yields, so waking another process costs two coroutine switches
// (process, driver, process) and no goroutine scheduling. A callback panic
// caught on a process coroutine is re-raised here with its original value;
// a panic in a process's own code leaves its coroutine and unwinds through
// here.
func (e *Env) drive(limit Time, inclusive bool, stopAt uint64) {
	if e.closed {
		return
	}
	if e.running {
		panic("sim: run started from inside a run")
	}
	e.limit, e.inclusive, e.stopAt = limit, inclusive, stopAt
	e.running = true
	defer func() { e.running, e.current = false, nil }()
	for h := e.dispatch(nil); h == batonPassed; h = e.hand {
		e.current.c.resume()
		if e.resumes++; e.resumes%schedEvery == 0 {
			runtime.Gosched()
		}
	}
	if r := e.fault; r != nil {
		e.fault = nil
		panic(r)
	}
}

// dispatch is the event loop. Whoever holds control runs it: the driver
// (self == nil) or a process that just parked or finished. Events pop in
// (time, sequence) order up to the run bound; callbacks run inline with no
// current process. It returns batonKept when the next event resumes self,
// batonPassed after making another process current (the driver resumes it),
// and batonDone when the bound is reached, the Env is closed, or a callback
// panicked on a process coroutine — the panic is parked in e.fault for the
// driver, so it never unwinds through the process's own code.
func (e *Env) dispatch(self *Proc) (h handoff) {
	if self != nil {
		defer func() {
			if r := recover(); r != nil {
				e.fault, e.current, h = r, nil, batonDone
			}
		}()
	}
	e.current = nil
	for !e.closed && e.executed != e.stopAt {
		at, ok := e.nextAt()
		if !ok || at > e.limit || (at == e.limit && !e.inclusive) {
			break
		}
		ev := e.pop()
		e.now = ev.at
		e.executed++
		switch {
		case ev.tmr != nil:
			fn := ev.tmr.fn
			e.releaseTimer(ev.tmr)
			fn()
		case ev.fn != nil:
			ev.fn()
		case ev.proc.state == procDone:
			// Stale wakeup for a finished process.
		case ev.proc == self:
			e.current = self
			return batonKept
		default:
			e.current = ev.proc
			return batonPassed
		}
	}
	return batonDone
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed. A process it resumes
// hands control straight back when it parks.
func (e *Env) Step() bool {
	before := e.executed
	e.drive(maxTime, true, before+1)
	return e.executed != before
}

// Run executes events until none remain. Simulations with immortal daemon
// processes (clocks, pollers) never drain; use RunUntil for those.
func (e *Env) Run() { e.drive(maxTime, true, noStop) }

// RunUntil executes every event scheduled at or before t, then advances the
// clock to exactly t.
func (e *Env) RunUntil(t Time) { e.runWindow(t, true) }

// RunUntilEvery is RunUntil(t) with an observer hook: fn runs at every
// multiple of `every` on the way to t (after all events at or before that
// instant, exactly as a plain RunUntil to the same point would leave the
// environment). The event stream executed is identical to RunUntil(t) —
// fn must observe only, never schedule — so attaching a windowed observer
// (the tsmon seal loop) cannot perturb simulation results. Multiples are
// absolute (k*every), not offsets from the current instant, matching the
// fixed virtual-time window grid.
func (e *Env) RunUntilEvery(t, every Time, fn func(now Time)) {
	if every <= 0 || fn == nil {
		e.RunUntil(t)
		return
	}
	next := (e.now/every)*every + every
	for next <= t {
		e.RunUntil(next)
		fn(next)
		next += every
	}
	e.RunUntil(t)
}

// runWindow executes events strictly before limit (at or before it when
// inclusive is set, for the final window of a bounded run), then advances
// the clock to exactly limit. It is RunUntil with an exclusive bound — the
// per-environment step of a ShardGroup window, which must not execute an
// event at the window horizon: the barrier hooks run at that instant first,
// so an event there sees the link share SharedHost.Arbitrate applied at the
// barrier.
func (e *Env) runWindow(limit Time, inclusive bool) {
	e.drive(limit, inclusive, noStop)
	if e.now < limit {
		e.now = limit
	}
}

// ExecutedEvents returns how many events this environment has dispatched —
// the throughput numerator for events/s comparisons. It is deterministic:
// equal seeds execute equal event counts regardless of how the run is
// windowed.
func (e *Env) ExecutedEvents() uint64 { return e.executed }

// PendingEvents returns the number of live scheduled events; stopped timers
// awaiting lazy reclamation are not counted.
func (e *Env) PendingEvents() int {
	return len(e.heap) + (len(e.fifo) - e.fifoHead) - e.dead
}

// Close aborts every live process and stops every carrier coroutine, and
// discards all pending events. Events are discarded before the processes
// unwind so stale resume entries cannot pin aborted processes, and once more
// afterwards to drop any wakeups scheduled by unwinding defers. Carriers stop
// in creation order, so aborted processes unwind in a deterministic order.
// The environment is unusable afterwards. Close is the cleanup counterpart
// of NewEnv and is safe to call multiple times.
func (e *Env) Close() {
	if e.closed {
		return
	}
	if e.current != nil {
		panic("sim: Close called from process context")
	}
	if e.running {
		// The dispatching coroutine may be a process Close would have to
		// abort: it cannot stop itself.
		panic("sim: Close called from a callback during a run")
	}
	e.closed = true
	e.discardEvents()
	for _, c := range e.carriers {
		if c.stop == nil {
			continue // never resumed: no coroutine to stop
		}
		// Stopping makes the carrier's pending yield report false: a parked
		// process unwinds, a free carrier just returns.
		e.current = c.p
		c.stop()
	}
	e.current = nil
	e.carriers, e.carrierFree = nil, nil
	e.discardEvents()
	hooks := e.closeHooks
	e.closeHooks = nil
	for _, fn := range hooks {
		fn()
	}
}

// OnClose registers fn to run at the end of Close, after every process has
// unwound and the event queues are discarded. Hooks run in registration
// order, once; registering on a closed environment runs fn immediately.
// Subsystems that pin external slots from process context (the DMA fence
// table's alloc-before-signal chunk fences) use this to release them when
// the simulation is torn down mid-flight.
func (e *Env) OnClose(fn func()) {
	if fn == nil {
		panic("sim: OnClose with nil hook")
	}
	if e.closed {
		fn()
		return
	}
	e.closeHooks = append(e.closeHooks, fn)
}

func (e *Env) discardEvents() {
	e.heap = nil
	e.fifo = nil
	e.fifoHead = 0
	e.dead = 0
	e.timerFree = nil
	e.waiterFree = nil
}

// currentProc returns the process executing right now, panicking when called
// from scheduler context where no process is live.
func (e *Env) currentProc() *Proc {
	if e.current == nil {
		panic("sim: blocking primitive used outside process context")
	}
	return e.current
}

func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now: %v, events: %d, procs: %d}",
		e.now, e.PendingEvents(), e.liveProcs())
}

// liveProcs counts the processes spawned and not yet finished.
func (e *Env) liveProcs() int {
	n := 0
	for _, c := range e.carriers {
		if c.p != nil && c.p.state != procDone {
			n++
		}
	}
	return n
}
