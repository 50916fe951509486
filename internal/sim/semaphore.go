package sim

// Semaphore is a counted resource with strict FIFO grant order, which keeps
// contention deterministic and starvation-free. A Semaphore with capacity 1
// is a mutex. Waiter registrations recycle through the Env's free list, so a
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

// Available returns the currently free units.
func (s *Semaphore) Available() int64 { return s.count }

// Capacity returns the total units.
func (s *Semaphore) Capacity() int64 { return s.cap }

// InUse returns the units currently held.
func (s *Semaphore) InUse() int64 { return s.cap - s.count }

// Acquire blocks p until n units are granted. n must not exceed capacity.
func (s *Semaphore) Acquire(p *Proc, n int64) {
	if n > s.cap {
		panic("sim: acquire exceeds semaphore capacity")
	}
	if s.waiters.len() == 0 && s.count >= n {
		s.count -= n
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

// TryAcquire grants n units without blocking, reporting success. FIFO order
// is respected: it fails while earlier waiters are queued.
func (s *Semaphore) TryAcquire(n int64) bool {
	if s.waiters.len() > 0 || s.count < n {
		return false
	}
	s.count -= n
	return true
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
		w.woke = true
		s.env.schedule(s.env.now, w.p, nil)
	}
}

// Hold acquires n units, sleeps for d, then releases — the common pattern
// for occupying a modeled hardware resource for a fixed service time.
func (s *Semaphore) Hold(p *Proc, n int64, d Time) {
	s.Acquire(p, n)
	p.Sleep(d)
	s.Release(n)
}

// Mutex is a binary semaphore with Lock/Unlock naming.
type Mutex struct{ s *Semaphore }

// NewMutex returns an unlocked mutex.
func NewMutex(env *Env) *Mutex { return &Mutex{s: NewSemaphore(env, 1)} }

// Lock blocks p until the mutex is held.
func (m *Mutex) Lock(p *Proc) { m.s.Acquire(p, 1) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release(1) }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.s.InUse() == 1 }
