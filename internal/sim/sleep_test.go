package sim

import (
	"strings"
	"testing"
	"time"
)

// TestLoneSleeperNeverQueues: a process whose every wakeup is the next
// event of the run takes each one in place — the queue is never touched —
// and each still counts as one executed event.
func TestLoneSleeperNeverQueues(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	const sleeps = 1000
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < sleeps; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	env.RunUntil(sleeps * time.Microsecond)
	if c := cap(env.heap); c != 0 {
		t.Fatalf("heap capacity %d after %d in-place sleeps, want 0", c, sleeps)
	}
	if got := env.ExecutedEvents(); got != sleeps+1 {
		t.Fatalf("ExecutedEvents = %d, want %d (the start event and every wakeup)", got, sleeps+1)
	}
	if env.Now() != sleeps*time.Microsecond || env.PendingEvents() != 0 {
		t.Fatalf("now=%v pending=%d, want %v/0", env.Now(), env.PendingEvents(), sleeps*time.Microsecond)
	}
}

// TestSleepTieRunsQueuedEventFirst: an event already queued at a sleeper's
// wakeup instant was scheduled first, so it runs first — the sleep goes
// through the queue instead of taking its wakeup in place.
func TestSleepTieRunsQueuedEventFirst(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var log []string
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(ms)
		log = append(log, "sleeper@"+p.Now().String())
	})
	env.After(ms, func() { log = append(log, "callback@"+env.Now().String()) })
	env.Run()
	if got := strings.Join(log, " "); got != "callback@1ms sleeper@1ms" {
		t.Fatalf("ran %q, want the earlier-queued callback first", got)
	}
	if got := env.ExecutedEvents(); got != 3 {
		t.Fatalf("ExecutedEvents = %d, want 3", got)
	}
}

// TestSleepAcrossRunBoundParks: a wakeup past the run's bound is queued, the
// clock stops at the bound, and the process resumes at its own instant in
// the next run.
func TestSleepAcrossRunBoundParks(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var woke Time = -1
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * ms)
		woke = p.Now()
	})
	env.RunUntil(2 * ms)
	if woke != -1 || env.PendingEvents() != 1 || env.Now() != 2*ms {
		t.Fatalf("after RunUntil(2ms): woke=%v pending=%d now=%v, want -1/1/2ms", woke, env.PendingEvents(), env.Now())
	}
	env.RunUntil(5 * ms)
	if woke != 3*ms || env.PendingEvents() != 0 || env.Now() != 5*ms {
		t.Fatalf("after RunUntil(5ms): woke=%v pending=%d now=%v, want 3ms/0/5ms", woke, env.PendingEvents(), env.Now())
	}
}

// TestSleepDuringCloseDoesNotContinue: a process that sleeps in a deferred
// function while Close aborts it parks and dies, even when the wakeup would
// fall inside the last run's bound with nothing else queued.
func TestSleepDuringCloseDoesNotContinue(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent(env)
	continued := false
	env.Spawn("blocked", func(p *Proc) {
		defer func() {
			p.Sleep(0)
			continued = true
		}()
		ev.Wait(p)
	})
	env.RunUntil(10 * ms)
	env.Close()
	if continued {
		t.Fatal("a process sleeping while Close aborts it continued past the sleep")
	}
}
