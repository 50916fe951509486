package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	if env.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", env.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var woke Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * ms)
		woke = p.Now()
	})
	env.Run()
	if woke != 5*ms {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestSequentialSleeps(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var times []Time
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2 * ms)
			times = append(times, p.Now())
		}
	})
	env.Run()
	want := []Time{2 * ms, 4 * ms, 6 * ms}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("sleep %d woke at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestFIFOOrderAtSameInstant(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			p.Sleep(1 * ms)
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending spawn order", order)
		}
	}
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var at Time = -1
	env.After(7*ms, func() { at = env.Now() })
	env.Run()
	if at != 7*ms {
		t.Fatalf("callback at %v, want 7ms", at)
	}
}

func TestRunUntilStopsAndAdvances(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	fired := 0
	env.After(3*ms, func() { fired++ })
	env.After(10*ms, func() { fired++ })
	env.RunUntil(5 * ms)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if env.Now() != 5*ms {
		t.Fatalf("Now() = %v, want 5ms", env.Now())
	}
	env.RunUntil(20 * ms)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEventBroadcastWakesAllWaiters(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ev := NewEvent(env)
	woke := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("waiter", func(p *Proc) {
			ev.Wait(p)
			woke[i] = p.Now()
		})
	}
	env.Spawn("signaler", func(p *Proc) {
		p.Sleep(4 * ms)
		ev.Signal()
	})
	env.Run()
	for i, w := range woke {
		if w != 4*ms {
			t.Errorf("waiter %d woke at %v, want 4ms", i, w)
		}
	}
}

func TestEventWaitAfterFiredReturnsImmediately(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ev := NewEvent(env)
	ev.Signal()
	var woke Time = -1
	env.Spawn("late", func(p *Proc) {
		p.Sleep(2 * ms)
		ev.Wait(p)
		woke = p.Now()
	})
	env.Run()
	if woke != 2*ms {
		t.Fatalf("woke at %v, want 2ms (no extra delay)", woke)
	}
}

func TestEventDoubleSignalIsNoop(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ev := NewEvent(env)
	ev.Signal()
	ev.Signal()
	if !ev.fired {
		t.Fatal("event should be fired")
	}
}

func TestEventWaitTimeoutFires(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ev := NewEvent(env)
	var ok bool
	var at Time
	env.Spawn("w", func(p *Proc) {
		ok = ev.WaitTimeout(p, 3*ms)
		at = p.Now()
	})
	env.Run()
	if ok {
		t.Fatal("WaitTimeout = true, want timeout")
	}
	if at != 3*ms {
		t.Fatalf("timed out at %v, want 3ms", at)
	}
}

func TestEventWaitTimeoutSignaledFirst(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ev := NewEvent(env)
	var ok bool
	var at Time
	env.Spawn("w", func(p *Proc) {
		ok = ev.WaitTimeout(p, 10*ms)
		at = p.Now()
	})
	env.Spawn("s", func(p *Proc) {
		p.Sleep(2 * ms)
		ev.Signal()
	})
	env.RunUntil(20 * ms)
	if !ok {
		t.Fatal("WaitTimeout = false, want signaled")
	}
	if at != 2*ms {
		t.Fatalf("woke at %v, want 2ms", at)
	}
}

func TestQueueFIFO(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, 0)
	var got []int
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1 * ms)
			q.Put(p, i)
		}
	})
	env.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want [0 1 2]", got)
		}
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[string](env, 0)
	var at Time
	env.Spawn("consumer", func(p *Proc) {
		q.Get(p)
		at = p.Now()
	})
	env.Spawn("producer", func(p *Proc) {
		p.Sleep(6 * ms)
		q.Put(p, "x")
	})
	env.Run()
	if at != 6*ms {
		t.Fatalf("consumer woke at %v, want 6ms", at)
	}
}

func TestQueueBoundedPutBlocks(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, 2)
	var secondPutAt Time
	env.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // blocks until consumer drains one
		secondPutAt = p.Now()
	})
	env.Spawn("consumer", func(p *Proc) {
		p.Sleep(5 * ms)
		q.Get(p)
	})
	env.Run()
	if secondPutAt != 5*ms {
		t.Fatalf("blocked Put completed at %v, want 5ms", secondPutAt)
	}
}

func TestQueueTryGetTryPut(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue should fail")
	}
	if !q.TryPut(42) {
		t.Fatal("TryPut on empty bounded queue should succeed")
	}
	if q.TryPut(43) {
		t.Fatal("TryPut on full queue should fail")
	}
	v, ok := q.TryGet()
	if !ok || v != 42 {
		t.Fatalf("TryGet = %d, %v; want 42, true", v, ok)
	}
}

func TestQueueMultipleConsumersFIFO(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, 0)
	var got [2]int
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("c", func(p *Proc) { got[i] = q.Get(p) })
	}
	env.Spawn("p", func(p *Proc) {
		p.Sleep(1 * ms)
		q.Put(p, 10)
		p.Sleep(1 * ms)
		q.Put(p, 20)
	})
	env.Run()
	if got[0] != 10 || got[1] != 20 {
		t.Fatalf("got = %v, want first consumer gets first item", got)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 2)
	active, peak := 0, 0
	for i := 0; i < 5; i++ {
		env.Spawn("worker", func(p *Proc) {
			s.Acquire(p, 1)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(10 * ms)
			active--
			s.Release(1)
		})
	}
	env.Run()
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if s.count != 2 {
		t.Fatalf("available = %d after drain, want 2", s.count)
	}
}

func TestSemaphoreFIFOGrant(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("w", func(p *Proc) {
			p.Sleep(Time(i) * ms) // arrive in order 0,1,2
			s.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(10 * ms)
			s.Release(1)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

// TestSemaphoreAcquireRespectsWaiters: a small request may not barge past
// an earlier queued waiter, even when enough units would be free for it.
func TestSemaphoreAcquireRespectsWaiters(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 3)
	var order []string
	env.Spawn("holder", func(p *Proc) {
		s.Acquire(p, 2)
		p.Sleep(10 * ms)
		s.Release(2)
	})
	env.Spawn("waiter", func(p *Proc) {
		p.Sleep(1 * ms)
		s.Acquire(p, 2)
		order = append(order, fmt.Sprintf("waiter@%v", p.Now()))
		s.Release(2)
	})
	env.Spawn("opportunist", func(p *Proc) {
		p.Sleep(5 * ms)
		s.Acquire(p, 1) // one unit is free, but the waiter queued first
		order = append(order, fmt.Sprintf("opportunist@%v", p.Now()))
		s.Release(1)
	})
	env.Run()
	if got := strings.Join(order, " "); got != "waiter@10ms opportunist@10ms" {
		t.Fatalf("grants = %q, want the waiter first, both at 10ms", got)
	}
}

func TestSemaphoreHold(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 1)
	var done Time
	hold := func(p *Proc) {
		s.Acquire(p, 1)
		p.Sleep(4 * ms)
		s.Release(1)
	}
	env.Spawn("a", hold)
	env.Spawn("b", func(p *Proc) {
		hold(p)
		done = p.Now()
	})
	env.Run()
	if done != 8*ms {
		t.Fatalf("second hold finished at %v, want 8ms (serialized)", done)
	}
}

func TestCloseAbortsBlockedProcesses(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent(env)
	ran := false
	env.Spawn("stuck", func(p *Proc) {
		ev.Wait(p) // never signaled
		ran = true
	})
	env.RunUntil(1 * ms)
	env.Close()
	if ran {
		t.Fatal("aborted process ran past its block point")
	}
	// Double close is safe.
	env.Close()
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		env := NewEnv(42)
		defer env.Close()
		var stamps []Time
		q := NewQueue[int](env, 0)
		for i := 0; i < 4; i++ {
			env.Spawn("prod", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Time(env.Rand().Intn(5)+1) * ms)
					q.Put(p, j)
				}
			})
		}
		env.Spawn("cons", func(p *Proc) {
			for j := 0; j < 40; j++ {
				q.Get(p)
				stamps = append(stamps, p.Now())
			}
		})
		env.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSpawnAt(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var started Time = -1
	env.SpawnAt(9*ms, "late", func(p *Proc) { started = p.Now() })
	env.Run()
	if started != 9*ms {
		t.Fatalf("started at %v, want 9ms", started)
	}
}

func TestYieldOrdersWithinInstant(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var order []string
	env.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	env.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	env.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunForAndIdle(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	fired := false
	env.After(4*ms, func() { fired = true })
	if env.PendingEvents() != 1 {
		t.Fatalf("PendingEvents = %d, want 1", env.PendingEvents())
	}
	env.RunUntil(env.Now() + 2*ms)
	if fired || env.Now() != 2*ms {
		t.Fatalf("fired=%v now=%v after running 2ms", fired, env.Now())
	}
	env.RunUntil(env.Now() + 2*ms)
	if !fired || env.PendingEvents() != 0 {
		t.Fatalf("fired=%v pending=%d, want fired and drained", fired, env.PendingEvents())
	}
}

func TestAfterNilCallbackPanics(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for nil callback")
		}
	}()
	env.After(ms, nil)
}

func TestBlockingOutsideProcessPanics(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 1)
	s.Acquire(nil, 1) // fast path needs no proc
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when a primitive must park outside process context")
		}
	}()
	// Second acquire must park, which requires process context.
	s.Acquire(nil, 1)
}

func TestProcAccessors(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	env.Spawn("named", func(p *Proc) {
		if p.name != "named" || p.Env() != env || p.String() == "" {
			t.Error("proc accessors wrong")
		}
		if p.Now() != env.Now() {
			t.Error("Now mismatch")
		}
	})
	env.Run()
	if env.String() == "" {
		t.Fatal("env stringer empty")
	}
}

func TestQueueLen(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[string](env, 0)
	if q.Len() != 0 {
		t.Fatalf("Len = %d on an empty queue, want 0", q.Len())
	}
	q.TryPut("a")
	q.TryPut("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if v, ok := q.TryGet(); !ok || v != "a" || q.Len() != 1 {
		t.Fatalf("TryGet = %q/%v leaving Len %d, want a/true leaving 1", v, ok, q.Len())
	}
}

func TestSemaphoreAccessors(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 3)
	if s.Capacity() != 3 || s.count != 3 || s.InUse() != 0 {
		t.Fatal("fresh semaphore accounting wrong")
	}
	s.Acquire(nil, 2) // fast path needs no proc
	if s.InUse() != 2 || s.count != 1 {
		t.Fatalf("InUse = %d, free = %d, want 2/1", s.InUse(), s.count)
	}
	s.Release(2)
}

func TestSemaphoreInvalidCapacityPanics(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewSemaphore(env, 0)
}

func TestSemaphoreOverReleasePanics(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.Release(1)
}

func TestAcquireBeyondCapacityPanics(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.Acquire(nil, 2)
}
