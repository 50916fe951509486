package sim

// waiter records one process parked on an Event or a Semaphore, or one
// callback chain queued on a Semaphore, awaiting a wakeup. The woke flag ensures a process receives at
// most one resume per registration even when several wake sources race at
// the same instant (e.g. a signal and a timeout). Waiters are recycled
// through the Env's free list once their registration is provably
// unreferenced; a timed wait's is allocated instead (WaitTimeout).
type waiter struct {
	p        *Proc
	fn       func() // non-nil: the chain's next step, scheduled on grant
	woke     bool
	timedOut bool
	need     int64   // semaphore units requested
	next     *waiter // free-list link
}

// Event is a one-shot broadcast: processes wait until some party signals,
// after which all current and future waits return immediately. Reset
// re-arms a fired event, so one Event can be embedded by value in a
// recycled record or serve a recurring condition.
type Event struct {
	env   *Env
	fired bool
	// w1 is the first waiter, held inline so a single-waiter Wait does not
	// allocate; waiters holds the rest in FIFO order and is empty whenever
	// w1 is nil.
	w1      *waiter
	waiters []*waiter
}

// NewEvent returns an unfired event bound to env.
func NewEvent(env *Env) *Event { return &Event{env: env} }

// Signal fires the event, waking every waiter at the current instant in
// the order they began waiting. Signaling an already-fired event is a
// no-op. Signal may be called from process or scheduler context.
func (ev *Event) Signal() {
	if ev.fired {
		return
	}
	ev.fired = true
	if ev.w1 != nil {
		ev.wake(ev.w1)
	}
	for _, w := range ev.waiters {
		ev.wake(w)
	}
	ev.w1 = nil
	clear(ev.waiters)
	ev.waiters = ev.waiters[:0] // kept for the next arming (Reset)
}

// Reset re-arms a fired event. Processes the previous Signal woke still
// resume: a waiter reads nothing from the event after it parks, so the
// event may be reset, or overwritten, before they run. Reset panics when
// processes wait on the unfired event, since they would never wake.
func (ev *Event) Reset() {
	if ev.w1 != nil {
		panic("sim: Reset of an event with waiters")
	}
	ev.fired = false
}

func (ev *Event) wake(w *waiter) {
	if !w.woke {
		w.woke = true
		ev.env.schedule(ev.env.now, w.p, nil)
	}
}

// addWaiter registers w behind every earlier waiter.
func (ev *Event) addWaiter(w *waiter) {
	if ev.w1 == nil {
		ev.w1 = w
		return
	}
	ev.waiters = append(ev.waiters, w)
}

// removeWaiter drops one registration, preserving the FIFO order of the
// rest.
func (ev *Event) removeWaiter(w *waiter) {
	if ev.w1 == w {
		ev.w1 = nil
		if len(ev.waiters) > 0 {
			ev.w1 = ev.waiters[0]
			ev.waiters = ev.waiters[1:]
		}
		return
	}
	for i, x := range ev.waiters {
		if x == w {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			return
		}
	}
}

// Wait blocks p until the event fires. Returns immediately if already fired.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	env := ev.env // ev may be reset or recycled before p resumes
	w := env.getWaiter(p)
	ev.addWaiter(w)
	p.park()
	env.putWaiter(w)
}

// WaitTimeout blocks p until the event fires or d elapses. It reports true
// when the event fired, false on timeout. The deadline is a plain After
// callback that does nothing once the waiter is woken, so a wait signalled
// in time leaves a no-op event queued until its deadline passes; a timeout
// removes the waiter from the event's list, so a late Signal has nothing to
// wake. The registration is allocated, not recycled: the deadline callback
// may read it after p resumes.
func (ev *Event) WaitTimeout(p *Proc, d Time) bool {
	if ev.fired {
		return true
	}
	env := ev.env // as in Wait: nothing is read from ev after park
	w := &waiter{p: p}
	ev.addWaiter(w)
	env.After(d, func() {
		// Still registered, so ev has not fired and cannot have been
		// reset or recycled.
		if !w.woke {
			w.woke = true
			w.timedOut = true
			ev.removeWaiter(w)
			env.schedule(env.now, w.p, nil)
		}
	})
	p.park()
	return !w.timedOut
}
