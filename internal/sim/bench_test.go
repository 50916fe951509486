package sim

import (
	"testing"
	"time"
)

// BenchmarkTimerEvents measures raw scheduler throughput: schedule-and-run
// of callback events.
func BenchmarkTimerEvents(b *testing.B) {
	env := NewEnv(1)
	defer env.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.After(time.Microsecond, func() {})
		env.Step()
	}
}

// BenchmarkProcessSwitch measures the Step-driven park/resume round trip of
// the coroutine machinery: driver to process and back, one event per Step.
func BenchmarkProcessSwitch(b *testing.B) {
	env := NewEnv(1)
	defer env.Close()
	done := false
	env.Spawn("spinner", func(p *Proc) {
		for !done {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Step()
	}
	b.StopTimer()
	done = true
	env.RunUntil(env.Now() + time.Millisecond)
}

// BenchmarkQueueHandoff measures producer/consumer handoff through a Queue.
func BenchmarkQueueHandoff(b *testing.B) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env)
	n := b.N
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Put(i)
			p.Sleep(0)
		}
	})
	consumed := 0
	env.Spawn("consumer", func(p *Proc) {
		for consumed < n {
			q.Get(p)
			consumed++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for consumed < n && env.Step() {
	}
}

// BenchmarkSemaphoreContention measures FIFO grant cost under contention.
func BenchmarkSemaphoreContention(b *testing.B) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 2)
	n := b.N
	for w := 0; w < 4; w++ {
		env.Spawn("worker", func(p *Proc) {
			for i := 0; i < n/4+1; i++ {
				s.Acquire(p, 1)
				p.Sleep(time.Nanosecond)
				s.Release(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !env.Step() {
			break
		}
	}
}
