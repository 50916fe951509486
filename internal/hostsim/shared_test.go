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
	sh := NewSharedHost(SharedHostConfig{PCIeBudget: 2e9}, m1, m2)
	const win = sharedWindow

	if got := sh.scale; got != 1 {
		t.Fatalf("initial scale = %v, want 1", got)
	}
	if la := sh.Lookahead(); la != 2*time.Millisecond {
		t.Fatalf("lookahead %v, want the 2ms arbitration window", la)
	}

	// Window 1: both guests move 4 MiB in 2 ms — demand over 2 GB/s.
	driveWindow(t, env, []*Machine{m1, m2}, 4*MiB, win)
	sh.Arbitrate(0, win)
	over := sh.scale
	if over >= 1 {
		t.Fatalf("scale after overload = %v, want < 1", over)
	}
	if over <= minSharedScale {
		t.Fatalf("scale after overload = %v, want above the %v floor", over, minSharedScale)
	}
	for _, m := range []*Machine{m1, m2} {
		if got := m.LinkBetween(m.DRAM, m.VRAM).SharedScale(); got != over {
			t.Fatalf("guest link scale = %v, want %v", got, over)
		}
	}

	// Window 2: idle — demand zero, so the full share comes back.
	env.RunUntil(sim.Time(2 * win))
	sh.Arbitrate(win, 2*win)
	if got := sh.scale; got != 1 {
		t.Fatalf("scale after idle window = %v, want 1", got)
	}
}

func TestSharedHostMinScaleFloor(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	sh := NewSharedHost(SharedHostConfig{PCIeBudget: 1}, m)

	driveWindow(t, env, []*Machine{m}, 4*MiB, sharedWindow)
	sh.Arbitrate(0, sharedWindow)
	if got := sh.scale; got != minSharedScale {
		t.Fatalf("scale under a starvation budget = %v, want the %v floor", got, minSharedScale)
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
