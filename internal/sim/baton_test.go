package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// boom is the panic value the callback-panic tests raise; a struct value so
// the re-raised panic can be compared for identity, not just by message.
type boom struct{ at Time }

// recovered runs fn and returns the value it panicked with, nil if none.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// closeWithin runs the teardown fn and fails the test if it hangs.
func closeWithin(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after a forwarded panic")
	}
}

// onParkingProcess reports whether the caller is running on a process
// coroutine that is dispatching from inside park.
func onParkingProcess() bool {
	buf := make([]byte, 64<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("sim.(*Proc).park"))
}

// panicRig spawns a process ticking every millisecond and a callback at
// 1.5ms that panics with boom. The driver resumes the ticker at 1ms, so the
// ticker's next park dispatches the callback on the ticker's coroutine.
func panicRig(env *Env, onProc *bool) {
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(ms)
		}
	})
	env.After(ms+ms/2, func() {
		*onProc = onParkingProcess()
		panic(boom{at: env.Now()})
	})
}

// TestCallbackPanicOnProcessGoroutineIsReraised: a callback that panics
// while a parking process holds the baton must surface from RunUntil with
// its original value, not crash the program as a process panic.
func TestCallbackPanicOnProcessGoroutineIsReraised(t *testing.T) {
	env := NewEnv(1)
	var onProc bool
	panicRig(env, &onProc)
	r := recovered(func() { env.RunUntil(10 * ms) })
	if r != (boom{at: ms + ms/2}) {
		t.Fatalf("RunUntil panicked with %v, want %v", r, boom{at: ms + ms/2})
	}
	if !onProc {
		t.Fatal("callback did not run on the parking process's coroutine: the forwarding path went untested")
	}
	closeWithin(t, env.Close)
}

// TestCallbackPanicInShardGroupIsReraised: the same forwarding holds inside
// a two-environment group, whichever environment panics — the first, or the
// second after the first has run its part of the window.
func TestCallbackPanicInShardGroupIsReraised(t *testing.T) {
	for victim := 0; victim < 2; victim++ {
		t.Run(fmt.Sprintf("env%d", victim), func(t *testing.T) {
			envs := []*Env{NewEnv(1), NewEnv(2)}
			var onProc bool
			for i, e := range envs {
				if i == victim {
					panicRig(e, &onProc)
				} else {
					e.Spawn("bystander", func(p *Proc) {
						for {
							p.Sleep(ms / 4)
						}
					})
				}
			}
			// A window wide enough that the ticker's 1ms wakeup and the
			// 1.5ms callback fall in the same one.
			g := NewShardGroup(4*ms, 2, envs...)
			r := recovered(func() { g.RunUntil(10 * ms) })
			if r != (boom{at: ms + ms/2}) {
				t.Fatalf("RunUntil panicked with %v, want %v", r, boom{at: ms + ms/2})
			}
			if !onProc {
				t.Fatal("callback did not run on a parking process's coroutine")
			}
			closeWithin(t, func() {
				g.Close()
				for _, e := range envs {
					e.Close()
				}
			})
		})
	}
}

// TestProcessPanicIsReraised: a panic in a process's own code leaves its
// coroutine and surfaces from the run that resumed it, naming the process,
// instead of crashing the program — on a plain Env and inside a
// two-environment group, whichever environment holds the faulty process.
// Close still tears everything down afterwards.
func TestProcessPanicIsReraised(t *testing.T) {
	const want = `sim: process "faulty" panicked: bad state`
	faulty := func(p *Proc) {
		p.Sleep(ms)
		panic("bad state")
	}
	ticker := func(p *Proc) {
		for {
			p.Sleep(ms / 4)
		}
	}
	t.Run("env", func(t *testing.T) {
		env := NewEnv(1)
		env.Spawn("bystander", ticker)
		env.Spawn("faulty", faulty)
		if r := recovered(func() { env.RunUntil(10 * ms) }); r != want {
			t.Fatalf("RunUntil panicked with %v, want %q", r, want)
		}
		closeWithin(t, env.Close)
	})
	for victim := 0; victim < 2; victim++ {
		t.Run(fmt.Sprintf("shards/env%d", victim), func(t *testing.T) {
			envs := []*Env{NewEnv(1), NewEnv(2)}
			for _, e := range envs {
				e.Spawn("bystander", ticker)
			}
			envs[victim].Spawn("faulty", faulty)
			g := NewShardGroup(4*ms, 2, envs...)
			if r := recovered(func() { g.RunUntil(10 * ms) }); r != want {
				t.Fatalf("RunUntil panicked with %v, want %q", r, want)
			}
			closeWithin(t, func() {
				g.Close()
				for _, e := range envs {
					e.Close()
				}
			})
		})
	}
}

// TestSpawnChurnReusesCarriers: 100k short-lived processes on one Env run on
// as many carriers as were ever live at once, a finished process leaves its
// carrier with nothing pinned, and String counts live processes only.
func TestSpawnChurnReusesCarriers(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	const total, burst = 100_000, 4
	child := func(p *Proc) { p.Sleep(time.Microsecond) }
	live := ""
	env.Spawn("spawner", func(p *Proc) {
		for spawned := 0; spawned < total; spawned += burst {
			for i := 0; i < burst; i++ {
				env.Spawn("child", child)
			}
			if spawned == total/2 {
				live = env.String()
			}
			p.Sleep(2 * time.Microsecond)
		}
	})
	env.Run()
	if want := fmt.Sprintf("procs: %d}", burst+1); !strings.HasSuffix(live, want) {
		t.Fatalf("mid-run String = %s, want it to end in %q", live, want)
	}
	if got := len(env.carriers); got != burst+1 {
		t.Fatalf("%d processes ran on %d carriers, want %d (the peak concurrency)", total+1, got, burst+1)
	}
	if len(env.carrierFree) != len(env.carriers) {
		t.Fatalf("%d of %d carriers free after the run drained", len(env.carrierFree), len(env.carriers))
	}
	for _, c := range env.carriers {
		if c.p != nil || c.fn != nil {
			t.Fatal("a free carrier still pins its last process")
		}
	}
	if s := env.String(); !strings.HasSuffix(s, "procs: 0}") {
		t.Fatalf("String after the run = %s, want no live processes", s)
	}
}

// TestEventSingleWaiterAllocatesNothing pins the inline first waiter: a
// Wait/Signal cycle with one waiter allocates nothing once the free lists
// are warm.
func TestEventSingleWaiterAllocatesNothing(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	evs := make([]*Event, 200)
	for i := range evs {
		evs[i] = NewEvent(env)
	}
	env.Spawn("waiter", func(p *Proc) {
		for _, ev := range evs {
			ev.Wait(p)
		}
	})
	env.Spawn("signaler", func(p *Proc) {
		for _, ev := range evs {
			p.Sleep(time.Microsecond)
			ev.Signal()
		}
	})
	env.RunUntil(env.Now() + 10*time.Microsecond) // warm up the queues and free lists
	if allocs := testing.AllocsPerRun(100, func() { env.RunUntil(env.Now() + time.Microsecond) }); allocs != 0 {
		t.Fatalf("single-waiter Wait/Signal allocates %.2f per cycle, want 0", allocs)
	}
}

// TestEventWakeOrderSurvivesRemoval: when the first waiter times out, the
// others still wake in the order they began waiting, ahead of later ones.
func TestEventWakeOrderSurvivesRemoval(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	ev := NewEvent(env)
	var order []string
	wait := func(p *Proc) {
		ev.Wait(p)
		order = append(order, p.name)
	}
	env.Spawn("timeout", func(p *Proc) {
		if ev.WaitTimeout(p, ms) {
			t.Error("WaitTimeout reported a signal before the deadline")
		}
	})
	env.Spawn("a", wait)
	env.Spawn("b", wait)
	env.SpawnAt(2*ms, "c", wait)
	env.After(3*ms, ev.Signal)
	env.Run()
	if got := strings.Join(order, " "); got != "a b c" {
		t.Fatalf("woke in order %q, want \"a b c\"", got)
	}
}

// TestCloseFromCallbackPanics: Close inside a run could have to abort the
// very process whose coroutine is dispatching the callback, so it refuses
// with a clear panic instead of deadlocking; Close after the run works.
func TestCloseFromCallbackPanics(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(ms)
		}
	})
	env.After(ms+ms/2, env.Close)
	r := recovered(func() { env.RunUntil(10 * ms) })
	if s, _ := r.(string); !strings.Contains(s, "Close called from a callback") {
		t.Fatalf("RunUntil panicked with %v, want the Close guard", r)
	}
	closeWithin(t, env.Close)
}

// TestStepExecutesOneEvent: Step dispatches exactly one event even when a
// parking process could hand the baton on — to another ready process, or
// back to itself through a zero-length Sleep.
func TestStepExecutesOneEvent(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var log []string
	for _, name := range []string{"a", "b"} {
		env.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, fmt.Sprintf("%s%d", p.name, i))
				p.Sleep(0)
			}
		})
	}
	want := []string{"a0", "b0", "a1", "b1", "a2", "b2"}
	for i := 1; i <= len(want); i++ {
		before := env.ExecutedEvents()
		if !env.Step() {
			t.Fatalf("step %d: no event executed", i)
		}
		if got := env.ExecutedEvents() - before; got != 1 {
			t.Fatalf("step %d executed %d events, want 1", i, got)
		}
		if strings.Join(log, " ") != strings.Join(want[:i], " ") {
			t.Fatalf("after step %d: log %v, want %v", i, log, want[:i])
		}
	}

	// A lone process yielding to itself: the self-resume fast path must
	// stay off under Step too.
	solo := NewEnv(1)
	defer solo.Close()
	n := 0
	solo.Spawn("solo", func(p *Proc) {
		for {
			n++
			p.Sleep(0)
		}
	})
	for i := 1; i <= 3; i++ {
		solo.Step()
		if n != i || solo.ExecutedEvents() != uint64(i) {
			t.Fatalf("step %d: process ran %d times over %d events", i, n, solo.ExecutedEvents())
		}
	}
}

// TestRunWindowLeavesLimitEventPending: an exclusive window must not execute
// a wakeup at exactly its horizon, even when the decision is made by a
// parking process holding the baton rather than by the driver.
func TestRunWindowLeavesLimitEventPending(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	const limit = 5 * ms
	woke := false
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(limit)
		woke = true
	})
	env.runWindow(limit, false)
	if woke || env.PendingEvents() != 1 || env.Now() != limit {
		t.Fatalf("after exclusive window: woke=%v pending=%d now=%v, want false/1/%v",
			woke, env.PendingEvents(), env.Now(), limit)
	}
	env.runWindow(limit, true)
	if !woke || env.PendingEvents() != 0 {
		t.Fatalf("after inclusive window: woke=%v pending=%d, want true/0", woke, env.PendingEvents())
	}
}

// TestBatonRunMatchesStepRun: RunUntil, whose dispatch moves between
// processes, executes the same events in the same order as a Step loop,
// whose dispatch never leaves the driver.
func TestBatonRunMatchesStepRun(t *testing.T) {
	run := func(useStep bool) string {
		env := NewEnv(3)
		defer env.Close()
		var b strings.Builder
		q := NewQueue[int](env, 2)
		mu := NewSemaphore(env, 1)
		for w := 0; w < 3; w++ {
			env.Spawn("producer", func(p *Proc) {
				for i := 0; ; i++ {
					mu.Acquire(p, 1)
					p.Sleep(Time(env.Rand().Intn(50)) * time.Microsecond)
					mu.Release(1)
					q.Put(p, w*1000+i)
				}
			})
		}
		env.Spawn("consumer", func(p *Proc) {
			for {
				v := q.Get(p)
				fmt.Fprintf(&b, "%d@%v ", v, env.Now())
				env.After(Time(v%7)*time.Microsecond, func() { fmt.Fprintf(&b, "cb%d@%v ", v, env.Now()) })
			}
		})
		const stop = 2 * ms
		if useStep {
			for {
				at, ok := env.nextAt()
				if !ok || at > stop {
					break
				}
				env.Step()
			}
		} else {
			env.RunUntil(stop)
		}
		fmt.Fprintf(&b, "events=%d", env.ExecutedEvents())
		return b.String()
	}
	want := run(true)
	if got := run(false); got != want {
		t.Fatalf("baton run diverged from step run\n got: %.300s\nwant: %.300s", got, want)
	}
}

// TestSemaphoreContendedCycleAllocatesNothing pins waiter recycling: once the
// wait queue has reached its depth, a contended Acquire/Release cycle
// allocates nothing.
func TestSemaphoreContendedCycleAllocatesNothing(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	s := NewSemaphore(env, 1)
	cycles := 0
	for w := 0; w < 3; w++ {
		env.Spawn("worker", func(p *Proc) {
			for {
				s.Acquire(p, 1)
				p.Sleep(time.Microsecond)
				s.Release(1)
				cycles++
			}
		})
	}
	env.RunUntil(env.Now() + ms) // warm up: queues and free lists reach steady depth
	before := cycles
	allocs := testing.AllocsPerRun(100, func() { env.RunUntil(env.Now() + 10*time.Microsecond) })
	if cycles-before < 1000 {
		t.Fatalf("only %d contended cycles measured", cycles-before)
	}
	if allocs != 0 {
		t.Fatalf("contended Acquire/Release allocates %.2f per 10 cycles, want 0", allocs)
	}
}
