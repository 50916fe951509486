package hostsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// driveWindow moves size bytes over each machine's DRAM->VRAM link and runs
// the environment to `until`, so the arbiter sees the draw as one window.
func driveWindow(t *testing.T, env *sim.Env, machs []*Machine, size Bytes, until time.Duration) {
	t.Helper()
	for _, m := range machs {
		l := m.LinkBetween(m.DRAM, m.VRAM)
		env.Spawn("xfer", func(p *sim.Proc) { l.Transfer(p, size) })
	}
	env.RunUntil(sim.Time(until))
}

func TestSharedHostBudgetArbitration(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m1, m2 := HighEndDesktop(env), HighEndDesktop(env)
	// Budget well below what two guests can pull through PCIe in a window.
	sh := NewSharedHost(SharedHostConfig{Window: time.Millisecond, PCIeBudget: 1e9}, m1, m2)

	if got := sh.scale; got != 1 {
		t.Fatalf("initial scale = %v, want 1", got)
	}
	if la := sh.Lookahead(); la != time.Millisecond {
		t.Fatalf("lookahead %v, want the configured window", la)
	}
	if la := NewSharedHost(SharedHostConfig{}, m1).Lookahead(); la != 2*time.Millisecond {
		t.Fatalf("default lookahead %v, want the 2ms default window", la)
	}

	// Window 1: both guests move 4 MiB in 1 ms — demand far over 1 GB/s.
	driveWindow(t, env, []*Machine{m1, m2}, 4*MiB, time.Millisecond)
	sh.Arbitrate(0, time.Millisecond)
	over := sh.scale
	if over >= 1 {
		t.Fatalf("scale after overload = %v, want < 1", over)
	}
	if over < 0.25 {
		t.Fatalf("scale after overload = %v, floored below MinScale", over)
	}
	for _, m := range []*Machine{m1, m2} {
		if got := m.LinkBetween(m.DRAM, m.VRAM).SharedScale(); got != over {
			t.Fatalf("guest link scale = %v, want %v", got, over)
		}
	}

	// Window 2: idle — demand zero, so the full share comes back.
	env.RunUntil(sim.Time(2 * time.Millisecond))
	sh.Arbitrate(time.Millisecond, 2*time.Millisecond)
	if got := sh.scale; got != 1 {
		t.Fatalf("scale after idle window = %v, want 1", got)
	}
}

func TestSharedHostMinScaleFloor(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	sh := NewSharedHost(SharedHostConfig{Window: time.Millisecond, PCIeBudget: 1, MinScale: 0.5}, m)

	driveWindow(t, env, []*Machine{m}, 4*MiB, time.Millisecond)
	sh.Arbitrate(0, time.Millisecond)
	if got := sh.scale; got != 0.5 {
		t.Fatalf("scale under a starvation budget = %v, want MinScale 0.5", got)
	}
}

func TestSharedHostThermalHysteresis(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	sh := NewSharedHost(SharedHostConfig{
		Window:            time.Millisecond,
		HeatPerBusySecond: 1000, // every busy second adds 1000 units
		CoolPerSecond:     0,    // no cooling while hot, cool windows below
		ThrottleAt:        0.1,
		ResumeAt:          0.05,
		ThrottledSpeed:    0.4,
	}, m)

	// Heat up: keep the link busy until the envelope trips.
	at := time.Duration(0)
	for i := 0; i < 50 && !sh.throttled; i++ {
		driveWindow(t, env, []*Machine{m}, 16*MiB, at+time.Millisecond)
		sh.Arbitrate(at, at+time.Millisecond)
		at += time.Millisecond
	}
	if !sh.throttled {
		t.Fatalf("host never throttled under sustained load (heat %v)", sh.heat)
	}
	if got := sh.scale; got != 0.4 {
		t.Fatalf("throttled scale = %v, want ThrottledSpeed 0.4", got)
	}

	// Cool down: idle windows with cooling enabled must cross ResumeAt and
	// restore the full share.
	sh.cfg.CoolPerSecond = 100
	for i := 0; i < 50 && sh.throttled; i++ {
		env.RunUntil(sim.Time(at + time.Millisecond))
		sh.Arbitrate(at, at+time.Millisecond)
		at += time.Millisecond
	}
	if sh.throttled {
		t.Fatalf("host never resumed after cooling (heat %v)", sh.heat)
	}
	if got := sh.scale; got != 1 {
		t.Fatalf("scale after resume = %v, want 1", got)
	}
}

func TestSharedScaleSlowsTransfers(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	l := m.LinkBetween(m.DRAM, m.VRAM)

	full := l.TransferTime(16 * MiB)
	l.SetSharedScale(0.5)
	halved := l.TransferTime(16 * MiB)
	if halved <= full {
		t.Fatalf("halved share did not slow the link: full %v, halved %v", full, halved)
	}
	l.SetSharedScale(1)
	if got := l.TransferTime(16 * MiB); got != full {
		t.Fatalf("restored share transfer time = %v, want %v", got, full)
	}

	for _, bad := range []float64{0, -0.1, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetSharedScale(%v) did not panic", bad)
				}
			}()
			l.SetSharedScale(bad)
		}()
	}
}
