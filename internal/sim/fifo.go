package sim

// fifo is a slice-backed FIFO that reuses its backing array: popping
// advances a head index, the slice rewinds whenever it drains, and a queue
// that never drains slides its live tail down before it would grow. A
// steady push/pop cycle therefore allocates nothing once the FIFO reaches
// its peak depth — unlike re-slicing s[1:], which walks off the end of the
// array and reallocates every few operations.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		live := copy(f.buf, f.buf[f.head:])
		clear(f.buf[live:])
		f.buf, f.head = f.buf[:live], 0
	}
	f.buf = append(f.buf, v)
}

// peek returns the head item; the FIFO must be non-empty.
func (f *fifo[T]) peek() T { return f.buf[f.head] }

// pop removes and returns the head item; the FIFO must be non-empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}
