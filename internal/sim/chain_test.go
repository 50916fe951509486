package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// chainOf returns the first step of a callback chain that continues once
// per delay through SleepFunc, calling visit at every step (the first is
// step 0), and a count of the continuations that have run.
func chainOf(env *Env, delays []Time, visit func(step int)) (start func(), conts func() int) {
	next := 0 // the step to run next
	var step func()
	step = func() {
		for {
			visit(next)
			if next++; next > len(delays) {
				return
			}
			if !env.SleepFunc(delays[next-1], step) {
				return
			}
		}
	}
	return step, func() int { return next - 1 }
}

// TestSemaphoreGrantsProcessesAndChainsInFIFOOrder: process and callback
// waiters share one queue, and each is granted in the order it asked.
func TestSemaphoreGrantsProcessesAndChainsInFIFOOrder(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 1)
	var log []string
	grant := func(name string) { log = append(log, name+"@"+env.Now().String()) }
	env.Spawn("holder", func(p *Proc) {
		s.Acquire(p, 1)
		p.Sleep(ms)
		if got := s.Waiting(); got != 4 {
			t.Errorf("Waiting = %d behind the holder, want 4", got)
		}
		s.Release(1)
	})
	proc := func(name string) {
		env.Spawn(name, func(p *Proc) {
			s.Acquire(p, 1)
			grant(name)
			p.Sleep(time.Microsecond)
			s.Release(1)
		})
	}
	chain := func(name string) {
		var held func()
		held = func() {
			grant(name)
			if env.SleepFunc(time.Microsecond, func() { s.Release(1) }) {
				s.Release(1)
			}
		}
		env.After(0, func() {
			if s.AcquireFunc(1, held) {
				held()
			}
		})
	}
	proc("a")
	chain("b")
	proc("c")
	chain("d")
	env.Run()
	want := "a@1ms b@1.001ms c@1.002ms d@1.003ms"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("grants %q, want %q", got, want)
	}
	if s.InUse() != 0 || s.Waiting() != 0 {
		t.Fatalf("InUse=%d Waiting=%d after the run, want 0/0", s.InUse(), s.Waiting())
	}
}

// TestLoneChainNeverQueues: a chain whose every continuation is the next
// event of the run takes each one in place — the queue is never touched —
// and each still counts as one executed event.
func TestLoneChainNeverQueues(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	const conts = 1000
	delays := make([]Time, conts)
	for i := range delays {
		delays[i] = time.Microsecond
	}
	start, ran := chainOf(env, delays, func(int) {})
	env.After(0, start)
	env.RunUntil(conts * time.Microsecond)
	if ran() != conts {
		t.Fatalf("chain continued %d times, want %d", ran(), conts)
	}
	if c := cap(env.heap); c != 0 {
		t.Fatalf("heap capacity %d after %d in-place continuations, want 0", c, conts)
	}
	if got := env.ExecutedEvents(); got != conts+1 {
		t.Fatalf("ExecutedEvents = %d, want %d (the first step and every continuation)", got, conts+1)
	}
	if env.Now() != conts*time.Microsecond || env.PendingEvents() != 0 {
		t.Fatalf("now=%v pending=%d, want %v/0", env.Now(), env.PendingEvents(), conts*time.Microsecond)
	}
}

// TestChainTieRunsQueuedEventFirst: an event already queued at a
// continuation's instant was scheduled first, so it runs first — the
// continuation goes through the queue instead of running in place.
func TestChainTieRunsQueuedEventFirst(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var log []string
	start, _ := chainOf(env, []Time{ms}, func(step int) {
		if step == 1 {
			log = append(log, "chain@"+env.Now().String())
		}
	})
	env.After(0, start)
	env.After(ms, func() { log = append(log, "callback@"+env.Now().String()) })
	env.Run()
	if got := strings.Join(log, " "); got != "callback@1ms chain@1ms" {
		t.Fatalf("ran %q, want the earlier-queued callback first", got)
	}
	if got := env.ExecutedEvents(); got != 3 {
		t.Fatalf("ExecutedEvents = %d, want 3", got)
	}
}

// TestChainPastRunBoundStaysPending: a continuation past a RunUntil bound,
// or at an exclusive runWindow horizon, is queued; the clock stops at the
// bound, and the continuation runs at its own instant in a later run.
func TestChainPastRunBoundStaysPending(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var ran []Time
	start, _ := chainOf(env, []Time{3 * ms, 2 * ms}, func(step int) {
		if step > 0 {
			ran = append(ran, env.Now())
		}
	})
	env.After(0, start)
	env.RunUntil(2 * ms)
	if len(ran) != 0 || env.PendingEvents() != 1 || env.Now() != 2*ms {
		t.Fatalf("after RunUntil(2ms): ran=%v pending=%d now=%v, want none/1/2ms", ran, env.PendingEvents(), env.Now())
	}
	const horizon = 5 * ms // the second continuation's instant
	env.runWindow(horizon, false)
	if len(ran) != 1 || ran[0] != 3*ms || env.PendingEvents() != 1 || env.Now() != horizon {
		t.Fatalf("after exclusive window: ran=%v pending=%d now=%v, want [3ms]/1/%v", ran, env.PendingEvents(), env.Now(), horizon)
	}
	env.runWindow(horizon, true)
	if len(ran) != 2 || ran[1] != horizon || env.PendingEvents() != 0 {
		t.Fatalf("after inclusive window: ran=%v pending=%d, want [3ms 5ms]/0", ran, env.PendingEvents())
	}
}

// TestStepRunsOneChainStep: Step dispatches exactly one chain step, even
// when the continuation would be the run's next event.
func TestStepRunsOneChainStep(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	start, ran := chainOf(env, []Time{0, time.Microsecond, -time.Microsecond}, func(int) {})
	env.After(0, start)
	for i := 1; i <= 4; i++ {
		if !env.Step() {
			t.Fatalf("step %d: no event executed", i)
		}
		if ran() != i-1 || env.ExecutedEvents() != uint64(i) {
			t.Fatalf("step %d: chain continued %d times over %d events, want %d/%d", i, ran(), env.ExecutedEvents(), i-1, i)
		}
	}
	if env.Step() {
		t.Fatal("an event remained after the chain's last step")
	}
}

// TestCloseRunsNoChain: Close runs neither a chain queued on a semaphore —
// not even when the process holding it releases it while it unwinds — nor
// a chain whose continuation is pending.
func TestCloseRunsNoChain(t *testing.T) {
	env := NewEnv(1)
	s := NewSemaphore(env, 1)
	ev := NewEvent(env)
	ran := false
	env.Spawn("holder", func(p *Proc) {
		s.Acquire(p, 1)
		defer s.Release(1)
		ev.Wait(p) // never signaled
	})
	env.After(0, func() {
		if s.AcquireFunc(1, func() { ran = true }) {
			t.Error("the held semaphore granted the chain at once")
		}
	})
	env.After(0, func() {
		env.SleepFunc(ms, func() { ran = true })
	})
	env.RunUntil(ms / 2)
	if s.Waiting() != 1 || env.PendingEvents() != 1 {
		t.Fatalf("before Close: Waiting=%d pending=%d, want 1/1", s.Waiting(), env.PendingEvents())
	}
	env.Close()
	env.RunUntil(2 * ms)
	if ran {
		t.Fatal("a chain step ran after Close")
	}
}

// chainOp is one operation of TestChainEventsMatchProcess's scripts: take
// the mutex, give it back, or sleep d.
type chainOp struct {
	acquire, release bool
	d                Time
}

// TestChainEventsMatchProcess: a chain is a process without a stack, not a
// different schedule. Actors take and give back a mutex and sleep between —
// zero, negative and positive delays that tie with a ticker's events — and
// whichever of them run as chains instead of processes, the run executes
// the same events in the same order: the same log at the same instants and
// the same executed-event count.
func TestChainEventsMatchProcess(t *testing.T) {
	us := time.Microsecond
	acq, rel := chainOp{acquire: true}, chainOp{release: true}
	scripts := [][]chainOp{
		{acq, {d: 3 * us}, {d: 0}, rel, {d: 2 * us}, acq, {d: us}, rel},
		{{d: us}, acq, {d: -us}, {d: 2 * us}, rel, {d: 0}, acq, rel},
		{acq, {d: 2 * us}, rel, {d: 3 * us}, acq, {d: 0}, {d: us}, rel},
	}
	run := func(chains int) (string, uint64) {
		env := NewEnv(1)
		defer env.Close()
		mu := NewSemaphore(env, 1)
		var b strings.Builder
		logf := func(name string, k int) { fmt.Fprintf(&b, "%s%d@%v ", name, k, env.Now()) }
		for i, script := range scripts {
			name := string(rune('a' + i))
			if chains&(1<<i) == 0 {
				env.Spawn(name, func(p *Proc) {
					for k, o := range script {
						logf(name, k)
						switch {
						case o.acquire:
							mu.Acquire(p, 1)
						case o.release:
							mu.Release(1)
						default:
							p.Sleep(o.d)
						}
					}
					logf(name, len(script))
				})
				continue
			}
			k := 0
			var step func()
			step = func() {
				for k < len(script) {
					o := script[k]
					logf(name, k)
					k++
					switch {
					case o.acquire:
						if !mu.AcquireFunc(1, step) {
							return
						}
					case o.release:
						mu.Release(1)
					default:
						if !env.SleepFunc(o.d, step) {
							return
						}
					}
				}
				logf(name, len(script))
			}
			env.After(0, step)
		}
		env.Spawn("ticker", func(p *Proc) {
			for k := 0; k < 16; k++ {
				p.Sleep(us)
				logf("t", k)
			}
		})
		env.Run()
		return b.String(), env.ExecutedEvents()
	}
	wantLog, wantEvents := run(0)
	for mask := 1; mask < 1<<len(scripts); mask++ {
		if log, events := run(mask); log != wantLog || events != wantEvents {
			t.Fatalf("chains %03b: %d events, log\n%s\nwant %d events, log\n%s", mask, events, log, wantEvents, wantLog)
		}
	}
}
