package sim

// Queue is a FIFO channel between processes. A zero capacity means
// unbounded; otherwise Put blocks while the queue is full. Wakeups are FIFO
// so contention resolves deterministically.
type Queue[T any] struct {
	env        *Env
	items      fifo[T]
	cap        int
	getWaiters fifo[*waiter]
	putWaiters fifo[*waiter]
}

// NewQueue returns a queue bound to env. capacity <= 0 means unbounded.
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

func (q *Queue[T]) wakeOne(ws *fifo[*waiter]) {
	for ws.len() > 0 {
		if w := ws.pop(); !w.woke {
			w.woke = true
			q.env.schedule(q.env.now, w.p, nil)
			return
		}
	}
}

func (q *Queue[T]) full() bool { return q.cap > 0 && q.items.len() >= q.cap }

// Put appends v, blocking while a bounded queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.full() {
		w := q.env.getWaiter(p)
		q.putWaiters.push(w)
		p.park()
		q.env.putWaiter(w) // woken waiters have left the wait list
	}
	q.items.push(v)
	q.wakeOne(&q.getWaiters)
}

// TryPut appends v without blocking, reporting whether it fit.
func (q *Queue[T]) TryPut(v T) bool {
	if q.full() {
		return false
	}
	q.items.push(v)
	q.wakeOne(&q.getWaiters)
	return true
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.len() == 0 {
		w := q.env.getWaiter(p)
		q.getWaiters.push(w)
		p.park()
		q.env.putWaiter(w) // woken waiters have left the wait list
	}
	v := q.items.pop()
	q.wakeOne(&q.putWaiters)
	return v
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	v := q.items.pop()
	q.wakeOne(&q.putWaiters)
	return v, true
}
