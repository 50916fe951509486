package sim

// Semaphore is a counted resource with strict FIFO grant order, which keeps
// contention deterministic and starvation-free. A Semaphore with capacity 1
// is a mutex. Processes (Acquire) and callback chains (AcquireFunc) wait in
// one queue. Waiter registrations recycle through the Env's free list, so a
// contended acquire/release cycle allocates nothing in steady state.
type Semaphore struct {
	env     *Env
	count   int64
	cap     int64
	waiters fifo[*waiter]
}

// NewSemaphore returns a semaphore with the given capacity, fully available.
func NewSemaphore(env *Env, capacity int64) *Semaphore {
	if capacity <= 0 {
		panic("sim: semaphore capacity must be positive")
	}
	return &Semaphore{env: env, count: capacity, cap: capacity}
}

// Capacity returns the total units.
func (s *Semaphore) Capacity() int64 { return s.cap }

// InUse returns the units currently held.
func (s *Semaphore) InUse() int64 { return s.cap - s.count }

// Waiting returns how many acquirers, processes and callbacks alike, are
// queued for units.
func (s *Semaphore) Waiting() int { return s.waiters.len() }

// take grants n units at once when nobody is queued ahead and enough are
// free. n must not exceed capacity.
func (s *Semaphore) take(n int64) bool {
	if n > s.cap {
		panic("sim: acquire exceeds semaphore capacity")
	}
	if s.waiters.len() == 0 && s.count >= n {
		s.count -= n
		return true
	}
	return false
}

// Acquire blocks p until n units are granted. n must not exceed capacity.
func (s *Semaphore) Acquire(p *Proc, n int64) {
	if s.take(n) {
		return
	}
	w := s.env.getWaiter(p)
	w.need = n
	s.waiters.push(w)
	for !w.woke {
		p.park()
	}
	s.env.putWaiter(w) // grant removed it from the queue
}

// AcquireFunc is Acquire for a callback chain. It reports true when the n
// units are granted at once, and the caller continues. Otherwise it queues
// fn behind every earlier waiter and reports false; the grant schedules fn
// at the grant instant, as one event exactly where a parked process's
// wakeup would go. n must not exceed capacity.
func (s *Semaphore) AcquireFunc(n int64, fn func()) bool {
	if s.take(n) {
		return true
	}
	w := s.env.getWaiter(nil)
	w.need, w.fn = n, fn
	s.waiters.push(w)
	return false
}

// Release returns n units and grants queued waiters in FIFO order.
func (s *Semaphore) Release(n int64) {
	s.count += n
	if s.count > s.cap {
		panic("sim: semaphore released above capacity")
	}
	s.grant()
}

func (s *Semaphore) grant() {
	for s.waiters.len() > 0 && s.count >= s.waiters.peek().need {
		w := s.waiters.pop()
		s.count -= w.need
		if w.fn != nil {
			// Nothing else references a callback registration: recycle it
			// now.
			s.env.schedule(s.env.now, nil, w.fn)
			s.env.putWaiter(w)
			continue
		}
		w.woke = true
		s.env.schedule(s.env.now, w.p, nil)
	}
}
