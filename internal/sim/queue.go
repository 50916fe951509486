package sim

// Queue is an unbounded FIFO channel between processes: Put never blocks,
// and Get blocks while the queue is empty. Wakeups are FIFO so contention
// resolves deterministically.
type Queue[T any] struct {
	env     *Env
	items   fifo[T]
	getters fifo[*Proc] // processes parked in Get, longest-waiting first
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] { return &Queue[T]{env: env} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Put appends v and wakes the longest-waiting Get. It may be called from
// process or scheduler context.
func (q *Queue[T]) Put(v T) {
	q.items.push(v)
	if q.getters.len() > 0 {
		q.env.schedule(q.env.now, q.getters.pop(), nil)
	}
}

// Get removes and returns the head item, blocking while the queue is empty.
// A woken getter that finds the item taken waits again, behind the others.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.len() == 0 {
		q.getters.push(p)
		p.park()
	}
	return q.items.pop()
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}
