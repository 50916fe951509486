package sim

import (
	"runtime"
	"testing"
	"time"
)

// pending reports whether a timer's callback has yet to fire or be stopped.
func pending(t Timer) bool {
	return t.rec != nil && t.rec.gen == t.gen && !t.rec.cancelled
}

func TestTimerStopCancels(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	fired := false
	tm := env.AfterFunc(10*time.Millisecond, func() { fired = true })
	if !pending(tm) {
		t.Fatal("timer not pending after AfterFunc")
	}
	if env.PendingEvents() != 1 {
		t.Fatalf("PendingEvents = %d, want 1", env.PendingEvents())
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false on a pending timer")
	}
	if pending(tm) {
		t.Fatal("timer still pending after Stop")
	}
	if env.PendingEvents() != 0 {
		t.Fatalf("PendingEvents = %d after Stop, want 0 (cancelled timers must not count)", env.PendingEvents())
	}
	env.RunUntil(env.Now() + time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	fired := 0
	tm := env.AfterFunc(time.Millisecond, func() { fired++ })
	env.RunUntil(env.Now() + 10*time.Millisecond)
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if tm.Stop() {
		t.Fatal("Stop returned true after the timer fired")
	}
	if pending(tm) {
		t.Fatal("timer pending after firing")
	}
}

// TestTimerHandleSurvivesRecycling checks that a stale handle stays inert
// after its record is recycled into a new timer: stopping the old handle
// must not cancel the new timer.
func TestTimerHandleSurvivesRecycling(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	old := env.AfterFunc(time.Millisecond, func() {})
	env.RunUntil(env.Now() + 10*time.Millisecond) // fires; record returns to the free list
	fired := false
	fresh := env.AfterFunc(time.Millisecond, func() { fired = true })
	if old.Stop() {
		t.Fatal("stale handle stopped a recycled record")
	}
	if !pending(fresh) {
		t.Fatal("fresh timer lost its registration")
	}
	env.RunUntil(env.Now() + 10*time.Millisecond)
	if !fired {
		t.Fatal("fresh timer did not fire")
	}
}

// TestWaitTimeoutSignaledLeavesNoTimer is the regression for the timeout
// leak: when the event fires before the deadline, the guard timer must not
// stay live in the queue pinning its closure and inflating PendingEvents.
func TestWaitTimeoutSignaledLeavesNoTimer(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent(env)
	env.Spawn("waiter", func(p *Proc) {
		if !ev.WaitTimeout(p, time.Hour) {
			t.Error("WaitTimeout reported timeout despite signal")
		}
	})
	env.Spawn("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Signal()
	})
	env.Run()
	if got := env.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents = %d after drain, want 0 (stale timeout timer leaked)", got)
	}
	env.Close()
}

// TestWaitTimeoutExpiredLeavesNoWaiter checks the mirror-image teardown: a
// timed-out wait must remove its registration from the event's waiter list,
// so a late Signal has nothing left to wake.
func TestWaitTimeoutExpiredLeavesNoWaiter(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ev := NewEvent(env)
	env.Spawn("waiter", func(p *Proc) {
		if ev.WaitTimeout(p, time.Millisecond) {
			t.Error("WaitTimeout reported signal despite timeout")
		}
	})
	env.RunUntil(env.Now() + 10*time.Millisecond)
	if ev.w1 != nil || len(ev.waiters) != 0 {
		t.Fatalf("event holds waiters after timeout: first %v, rest %d", ev.w1, len(ev.waiters))
	}
	ev.Signal() // must be a no-op wake
	env.RunUntil(env.Now() + 10*time.Millisecond)
	if got := env.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents = %d, want 0", got)
	}
}

// TestCloseFreesGoroutines is the regression for Close's ordering: aborting
// processes after discarding events must unwind every parked goroutine, even
// ones whose wakeups were still queued.
func TestCloseFreesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	ev := NewEvent(env)
	for i := 0; i < 20; i++ {
		env.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
		env.Spawn("waiter", func(p *Proc) { ev.Wait(p) })
		env.Spawn("timed", func(p *Proc) { ev.WaitTimeout(p, time.Hour) })
	}
	env.RunUntil(env.Now() + time.Millisecond) // park everyone
	env.Close()
	env.Close() // idempotent
	// Every carrier coroutine is a goroutine: wait for the count to settle
	// back to its starting level.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestZeroDelayFIFOOrder pins the heap/ring ordering invariant: events
// already in the heap for the current instant run before anything scheduled
// at that instant via the zero-delay fast path, in (at, seq) order.
func TestZeroDelayFIFOOrder(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var order []string
	at := 5 * time.Millisecond
	env.After(at, func() {
		order = append(order, "A")
		env.After(0, func() { order = append(order, "C") }) // ring entry
	})
	env.After(at, func() { order = append(order, "B") }) // heap entry at same instant
	env.Run()
	want := []string{"A", "B", "C"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}
