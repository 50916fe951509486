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
		t.Fatal("Close hung after a forwarded callback panic")
	}
}

// onParkingProcess reports whether the caller is running on a process
// goroutine that is dispatching from inside park.
func onParkingProcess() bool {
	buf := make([]byte, 64<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("sim.(*Proc).park"))
}

// panicRig spawns a process ticking every millisecond and a callback at
// 1.5ms that panics with boom. The driver resumes the ticker at 1ms, so the
// ticker's next park dispatches the callback on the ticker's goroutine.
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
		t.Fatal("callback did not run on the parking process's goroutine: the forwarding path went untested")
	}
	closeWithin(t, env.Close)
}

// TestCallbackPanicInShardGroupIsReraised: the same forwarding holds inside
// a 2-shard group, whether the panicking environment runs on the
// coordinating goroutine (env 0) or on a worker (env 1).
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
				t.Fatal("callback did not run on a parking process's goroutine")
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

// TestCloseFromCallbackPanics: Close inside a run could have to abort the
// very process whose goroutine is dispatching the callback, so it refuses
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
// back to itself through a Yield.
func TestStepExecutesOneEvent(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var log []string
	for _, name := range []string{"a", "b"} {
		env.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, fmt.Sprintf("%s%d", p.Name(), i))
				p.Yield()
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
			p.Yield()
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
		mu := NewMutex(env)
		for w := 0; w < 3; w++ {
			env.Spawn("producer", func(p *Proc) {
				for i := 0; ; i++ {
					mu.Lock(p)
					p.Sleep(Time(env.Rand().Intn(50)) * time.Microsecond)
					mu.Unlock()
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
	env.RunFor(ms) // warm up: queues and free lists reach steady depth
	before := cycles
	allocs := testing.AllocsPerRun(100, func() { env.RunFor(10 * time.Microsecond) })
	if cycles-before < 1000 {
		t.Fatalf("only %d contended cycles measured", cycles-before)
	}
	if allocs != 0 {
		t.Fatalf("contended Acquire/Release allocates %.2f per 10 cycles, want 0", allocs)
	}
}
