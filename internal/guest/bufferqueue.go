package guest

import (
	"time"

	"repro/internal/device"
	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/svm"
)

// Buffer is one shared-memory buffer circulating in a BufferQueue. The
// handle travels between producer and consumer; the data stays wherever the
// SVM manager placed it.
type Buffer struct {
	Handle svm.Handle
	Region svm.RegionID
	Size   hostsim.Bytes

	// Ticket is the producer's last write ticket, used by the consumer to
	// order its read behind the write (fence mode) or await completion.
	Ticket device.Ticket

	// PTS is the presentation timestamp assigned by the producer
	// (MediaCodec semantics, §5.4); zero when unused.
	PTS time.Duration
	// SourceTime is when the underlying content came into existence
	// (capture time, network arrival) for motion-to-photon accounting.
	SourceTime time.Duration
	// Seq is the producer's frame sequence number.
	Seq int64
	// Dirty is the bytes actually written this cycle (the size argument
	// of the Fig. 3 interface); zero means the whole buffer.
	Dirty hostsim.Bytes
}

// BufferQueue is an Android-style buffer pool between one producer and one
// consumer: the producer dequeues a free buffer, fills it, and queues it;
// the consumer acquires filled buffers and releases them back. The pool
// depth is the pipeline's buffering, which smooths jitter and lengthens
// slack intervals (§2.3).
type BufferQueue struct {
	free   *sim.Queue[*Buffer]
	filled *sim.Queue[*Buffer]
}

// NewBufferQueue creates a queue of depth buffers, each of the given size,
// allocated from the HAL module.
func NewBufferQueue(p *sim.Proc, mod *svm.Module, depth int, size hostsim.Bytes) (*BufferQueue, error) {
	env := p.Env()
	q := &BufferQueue{
		free:   sim.NewQueue[*Buffer](env),
		filled: sim.NewQueue[*Buffer](env),
	}
	for i := 0; i < depth; i++ {
		h, err := mod.Alloc(p, size)
		if err != nil {
			return nil, err
		}
		id, err := mod.RegionOf(h)
		if err != nil {
			return nil, err
		}
		q.free.Put(&Buffer{Handle: h, Region: id, Size: size})
	}
	return q, nil
}

// FilledCount returns queued, unconsumed buffers.
func (q *BufferQueue) FilledCount() int { return q.filled.Len() }

// Dequeue blocks the producer until a free buffer is available.
func (q *BufferQueue) Dequeue(p *sim.Proc) *Buffer { return q.free.Get(p) }

// TryDequeue returns a free buffer without blocking.
func (q *BufferQueue) TryDequeue() (*Buffer, bool) { return q.free.TryGet() }

// Queue hands a filled buffer to the consumer.
func (q *BufferQueue) Queue(b *Buffer) { q.filled.Put(b) }

// Acquire blocks the consumer until a filled buffer is available.
func (q *BufferQueue) Acquire(p *sim.Proc) *Buffer { return q.filled.Get(p) }

// TryAcquire returns a filled buffer without blocking.
func (q *BufferQueue) TryAcquire() (*Buffer, bool) { return q.filled.TryGet() }

// Release returns a consumed buffer to the producer.
func (q *BufferQueue) Release(b *Buffer) {
	b.Ticket = device.Ticket{}
	b.PTS = 0
	b.SourceTime = 0
	b.Dirty = 0
	q.free.Put(b)
}
