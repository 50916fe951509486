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
