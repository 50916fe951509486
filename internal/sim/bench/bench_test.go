// Package bench microbenchmarks the sim scheduler core in isolation:
// steady-state event throughput at several queue depths, the same-instant
// zero-delay path, timer cancellation churn, and — driven by RunUntil, so
// parking processes dispatch events themselves and sleepers take their own
// wakeups in place — process wakeups passed between process coroutines,
// callback chains alone and contending with a process, and short-lived
// process churn. Every benchmark reports events/s and allocs/op; the
// scheduler's contract is ~0 allocs/op once the queues reach steady state,
// plus the Proc itself per spawn.
//
// Run with:
//
//	go test -bench=. -benchmem ./internal/sim/bench
package bench_test

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// steadyState keeps `depth` self-rescheduling timers outstanding with
// staggered periods, so every Step pops one event and pushes one — the hot
// loop of every hostsim device model.
func steadyState(b *testing.B, depth int) {
	env := sim.NewEnv(1)
	defer env.Close()
	for i := 0; i < depth; i++ {
		d := time.Microsecond * time.Duration(1+i%97)
		var fn func()
		fn = func() { env.After(d, fn) }
		env.After(d, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkSteadyState16(b *testing.B)   { steadyState(b, 16) }
func BenchmarkSteadyState256(b *testing.B)  { steadyState(b, 256) }
func BenchmarkSteadyState4096(b *testing.B) { steadyState(b, 4096) }

// BenchmarkZeroDelay measures the same-instant path: a zero-delay callback
// rescheduling itself never advances the clock, the pattern behind Sleep(0) and
// signal-at-now wakeups.
func BenchmarkZeroDelay(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	var fn func()
	fn = func() { env.After(0, fn) }
	env.After(0, fn)
	// A far-future event keeps the heap non-trivial so the fast path is
	// measured against a populated queue.
	env.After(time.Hour, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTimerStop measures the schedule/stop cycle of cancellable
// timeouts — the guard-timer pattern of Event.WaitTimeout, where almost
// every timer is cancelled before it fires.
func BenchmarkTimerStop(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	tick := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := env.AfterFunc(time.Millisecond, tick)
		t.Stop()
		env.RunUntil(env.Now() + time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkWaitTimeoutSignaled measures the fired path of WaitTimeout: the
// event signals in time, the guard timer is stopped, and neither side may
// leak queue entries.
func BenchmarkWaitTimeoutSignaled(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	n := b.N
	evs := make(chan *sim.Event, 1)
	env.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			ev := sim.NewEvent(env)
			evs <- ev
			if !ev.WaitTimeout(p, time.Second) {
				b.Error("unexpected timeout")
				return
			}
		}
	})
	env.Spawn("signaler", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
			(<-evs).Signal()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for env.Step() {
	}
	b.StopTimer()
	if got := env.PendingEvents(); got != 0 {
		b.Fatalf("PendingEvents = %d after drain, want 0 (leaked timers?)", got)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "waits/s")
}

// runUntil drives env with RunUntil for b.N microseconds of virtual time —
// one iteration per microsecond — and reports the dispatched events/s.
func runUntil(b *testing.B, env *sim.Env) {
	before := env.ExecutedEvents()
	b.ReportAllocs()
	b.ResetTimer()
	env.RunUntil(env.Now() + time.Duration(b.N)*time.Microsecond)
	b.StopTimer()
	b.ReportMetric(float64(env.ExecutedEvents()-before)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkRunUntilSleep is a lone process sleeping in a loop: every
// wakeup is the run's next event, which Sleep takes in place — no queue,
// no dispatch, no coroutine switch.
func BenchmarkRunUntilSleep(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	env.Spawn("sleeper", func(p *sim.Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	runUntil(b, env)
}

// BenchmarkRunUntilPingPong bounces a token between two processes through a
// pair of queues once per microsecond: each wakeup is one handoff from the
// parking process, through the driver, to the other.
func BenchmarkRunUntilPingPong(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	ping := sim.NewQueue[int](env, 1)
	pong := sim.NewQueue[int](env, 1)
	env.Spawn("pinger", func(p *sim.Proc) {
		for i := 0; ; i++ {
			p.Sleep(time.Microsecond)
			ping.Put(p, i)
			pong.Get(p)
		}
	})
	env.Spawn("ponger", func(p *sim.Proc) {
		for {
			pong.Put(p, ping.Get(p))
		}
	})
	runUntil(b, env)
}

// BenchmarkRunUntilMixed interleaves a sleeping process with After
// callbacks: the callbacks run inline on the process's coroutine while it
// holds the baton.
func BenchmarkRunUntilMixed(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	ticks := 0
	tick := func() { ticks++ }
	env.Spawn("worker", func(p *sim.Proc) {
		for {
			env.After(300*time.Nanosecond, tick)
			env.After(600*time.Nanosecond, tick)
			p.Sleep(time.Microsecond)
		}
	})
	runUntil(b, env)
}

// BenchmarkRunUntilChain is a lone callback chain continuing once per
// microsecond: every continuation is the run's next event, which SleepFunc
// takes in place — no queue, no dispatch, no coroutine at all.
func BenchmarkRunUntilChain(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	var step func()
	step = func() {
		for env.SleepFunc(time.Microsecond, step) {
		}
	}
	env.After(0, step)
	runUntil(b, env)
}

// BenchmarkRunUntilChainHandoff contends a mutex between a process and a
// callback chain, each holding it for a microsecond per turn: the link
// pattern of a coherence push or a chunk batch queued behind a blocked
// reader's copy. Every release hands the mutex across — to the chain's
// queued callback, or to the parked process — and the waiter registrations
// recycle, so a turn allocates nothing.
func BenchmarkRunUntilChainHandoff(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	mu := sim.NewSemaphore(env, 1)
	env.Spawn("holder", func(p *sim.Proc) {
		for {
			mu.Acquire(p, 1)
			p.Sleep(time.Microsecond)
			mu.Release(1)
		}
	})
	var acquire, held, release func()
	acquire = func() {
		if mu.AcquireFunc(1, held) {
			held()
		}
	}
	held = func() {
		if env.SleepFunc(time.Microsecond, release) {
			release()
		}
	}
	release = func() {
		mu.Release(1)
		acquire()
	}
	env.After(0, acquire)
	runUntil(b, env)
}

// BenchmarkSpawnChurn spawns one process per iteration that sleeps once and
// exits, driven by RunUntil: the pattern of a short-lived model process,
// such as a device stall. (Pushes and the chunk driver, the per-transfer
// work, run as callback chains instead.) A finished process's carrier
// coroutine is pooled and reused, so with warm carriers the only
// allocation is the Proc.
func BenchmarkSpawnChurn(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	churn := func(p *sim.Proc) { p.Sleep(time.Microsecond) }
	env.Spawn("warm", churn)
	env.RunUntil(env.Now() + time.Microsecond)
	before := env.ExecutedEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Spawn("churn", churn)
		env.RunUntil(env.Now() + time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(env.ExecutedEvents()-before)/b.Elapsed().Seconds(), "events/s")
}
