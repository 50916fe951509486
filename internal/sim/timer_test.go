package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestWaitTimeoutStaleDeadlineWakesNobody pins the timed-wait contract: a
// waiter signalled in time resumes once, at the signal, and the deadline
// it leaves queued does nothing when it passes, though by then the event
// has been reset and the same process and a later one both wait on it
// again.
func TestWaitTimeoutStaleDeadlineWakesNobody(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ev := NewEvent(env)
	var timed []Time
	env.Spawn("timed", func(p *Proc) {
		if !ev.WaitTimeout(p, 10*ms) {
			t.Error("WaitTimeout reported a timeout despite the signal")
		}
		timed = append(timed, p.Now())
		ev.Wait(p)
		timed = append(timed, p.Now())
	})
	var later Time = -1
	env.Spawn("later", func(p *Proc) {
		p.Sleep(2 * ms)
		ev.Wait(p)
		later = p.Now()
	})
	env.After(ms, func() {
		ev.Signal()
		ev.Reset()
	})
	env.After(20*ms, ev.Signal)
	env.Run()
	if len(timed) != 2 || timed[0] != ms || timed[1] != 20*ms {
		t.Fatalf("timed waiter resumed at %v, want [1ms 20ms]", timed)
	}
	if later != 20*ms {
		t.Fatalf("later waiter resumed at %v, want 20ms", later)
	}
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
