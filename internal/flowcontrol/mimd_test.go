package flowcontrol

import (
	"testing"
	"time"

	"repro/internal/sim"
)

const ms = time.Millisecond

func cfg() Config {
	return Config{
		InitialWindow:    2,
		MinWindow:        1,
		MaxWindow:        16,
		Increase:         2,
		Decrease:         0.5,
		BacklogThreshold: 4,
	}
}

func TestAcquireWithinWindowDoesNotBlock(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env, cfg())
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
	m := New(env, cfg())
	var third time.Duration
	env.Spawn("g", func(p *sim.Proc) {
		m.Acquire(p)
		m.Acquire(p)
		m.Acquire(p) // window=2: blocks until a completion
		third = p.Now()
	})
	env.Spawn("host", func(p *sim.Proc) {
		p.Sleep(5 * ms)
		m.Complete(0)
	})
	env.Run()
	if third != 5*ms {
		t.Fatalf("third acquire at %v, want 5ms", third)
	}
}

func TestWindowGrowsWhenHostKeepsUp(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env, cfg())
	env.Spawn("g", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			m.Acquire(p)
			m.Complete(0) // empty host queue
		}
	})
	env.Run()
	if m.window != 16 {
		t.Fatalf("Window = %v, want 16 (2 -> 4 -> 8 -> 16)", m.window)
	}
}

func TestWindowCappedAtMax(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env, cfg())
	env.Spawn("g", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			m.Acquire(p)
			m.Complete(0)
		}
	})
	env.Run()
	if m.window != 16 {
		t.Fatalf("Window = %v, want capped at 16", m.window)
	}
}

func TestWindowShrinksOnBacklog(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env, cfg())
	env.Spawn("g", func(p *sim.Proc) {
		m.Acquire(p)
		m.Complete(100) // deep host queue
	})
	env.Run()
	if m.window != 1 {
		t.Fatalf("Window = %v, want 1 (2 * 0.5)", m.window)
	}
}

func TestWindowFloorAtMin(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env, cfg())
	env.Spawn("g", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			m.Acquire(p)
			m.Complete(100)
		}
	})
	env.Run()
	if m.window != 1 {
		t.Fatalf("Window = %v, want floored at 1", m.window)
	}
}

func TestCompleteWithoutAcquirePanics(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env, cfg())
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
	c := cfg()
	m := New(env, c)
	hostQ := sim.NewQueue[int](env, 0)
	peak := 0
	env.Spawn("guest", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			m.Acquire(p)
			if m.inflight > peak {
				peak = m.inflight
			}
			hostQ.Put(p, i)
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
	if float64(peak) > c.MaxWindow {
		t.Fatalf("peak in-flight %d exceeded max window %v", peak, c.MaxWindow)
	}
	if m.inflight != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", m.inflight)
	}
}
