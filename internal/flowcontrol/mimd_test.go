package flowcontrol

import (
	"testing"
	"time"

	"repro/internal/sim"
)

const ms = time.Millisecond

func TestAcquireWithinWindowDoesNotBlock(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env)
	var at time.Duration = -1
	env.Spawn("g", func(p *sim.Proc) {
		m.Acquire(p)
		m.Acquire(p)
		at = p.Now()
	})
	env.Run()
	if at != 0 {
		t.Fatalf("acquires within window blocked until %v", at)
	}
	if m.inflight != 2 {
		t.Fatalf("InFlight = %d, want 2", m.inflight)
	}
}

func TestAcquireBlocksWhenWindowFull(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env)
	var blocked time.Duration
	env.Spawn("g", func(p *sim.Proc) {
		for i := 0; i < initialWindow; i++ {
			m.Acquire(p)
		}
		m.Acquire(p) // window full: blocks until a completion
		blocked = p.Now()
	})
	env.Spawn("host", func(p *sim.Proc) {
		p.Sleep(5 * ms)
		m.Complete(0)
	})
	env.Run()
	if blocked != 5*ms {
		t.Fatalf("acquire past the window at %v, want 5ms", blocked)
	}
}

func TestWindowGrowsWhenHostKeepsUp(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env)
	env.Spawn("g", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			m.Acquire(p)
			m.Complete(0) // empty host queue
		}
	})
	env.Run()
	if m.window != 15.625 {
		t.Fatalf("Window = %v, want 15.625 (8 -> 10 -> 12.5 -> 15.625)", m.window)
	}
}

func TestWindowCappedAtMax(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env)
	env.Spawn("g", func(p *sim.Proc) {
		for i := 0; i < 20; i++ { // 8 * 1.25^20 is far past the cap
			m.Acquire(p)
			m.Complete(0)
		}
	})
	env.Run()
	if m.window != maxWindow {
		t.Fatalf("Window = %v, want capped at %v", m.window, maxWindow)
	}
}

func TestWindowShrinksOnBacklog(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env)
	env.Spawn("g", func(p *sim.Proc) {
		m.Acquire(p)
		m.Complete(100) // deep host queue
	})
	env.Run()
	if m.window != 4 {
		t.Fatalf("Window = %v, want 4 (8 * 0.5)", m.window)
	}
}

func TestWindowFloorAtMin(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env)
	env.Spawn("g", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			m.Acquire(p)
			m.Complete(100)
		}
	})
	env.Run()
	if m.window != minWindow {
		t.Fatalf("Window = %v, want floored at %v", m.window, minWindow)
	}
}

func TestCompleteWithoutAcquirePanics(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.Complete(0)
}

func TestPacingBoundsInflight(t *testing.T) {
	// With a slow host and shrinking window, in-flight commands never
	// exceed the max window.
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env)
	hostQ := sim.NewQueue[int](env)
	peak := 0
	env.Spawn("guest", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			m.Acquire(p)
			if m.inflight > peak {
				peak = m.inflight
			}
			hostQ.Put(i)
		}
	})
	env.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			hostQ.Get(p)
			p.Sleep(1 * ms) // slow host
			m.Complete(hostQ.Len())
		}
	})
	env.Run()
	if float64(peak) > maxWindow {
		t.Fatalf("peak in-flight %d exceeded max window %v", peak, maxWindow)
	}
	if m.inflight != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", m.inflight)
	}
}
