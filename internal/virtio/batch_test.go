package virtio

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func batchTestConfig() Config { return Config{Batch: EnabledBatch()} }

// TestElidedKickSurvivesPeerIdleRace exercises both edges of the event-index
// state machine. A dispatch landing while the host executor is mid-command
// elides its kick and must still be picked up when the executor loops back to
// Recv (the queue wakeup, not the doorbell, is what carries the command). A
// dispatch landing after the executor has published idle and blocked must pay
// the kick. Neither edge may strand a command.
func TestElidedKickSurvivesPeerIdleRace(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", batchTestConfig())

	var received []string
	env.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			c := r.Recv(p)
			received = append(received, c.Kind)
			p.Sleep(50 * us) // host execution
		}
	})
	env.Spawn("guest", func(p *sim.Proc) {
		// t=0: host is blocked in Recv with the ring empty -> kick.
		r.Dispatch(p, newCmd(r, "a"))
		p.Sleep(10 * us)
		// t=32us: host is executing "a" until t=72us -> kick elided; the
		// host's next Recv finds "b" already queued.
		r.Dispatch(p, newCmd(r, "b"))
		p.Sleep(128 * us)
		// t=162us: host drained the ring at t=122us, republished idle, and
		// blocked -> the race resolved toward idle, so this dispatch must
		// pay the kick that wakes it.
		r.Dispatch(p, newCmd(r, "c"))
	})
	env.Run()

	if len(received) != 3 {
		t.Fatalf("received %d commands %v, want 3 — an elided kick stranded one", len(received), received)
	}
	s := r.Stats()
	if s.Kicks != 2 || s.ElidedKicks != 1 {
		t.Fatalf("kicks=%d elided=%d, want 2 kicks (idle peer) and 1 elided (busy peer)", s.Kicks, s.ElidedKicks)
	}
	if s.Kicks+s.ElidedKicks != s.Commands {
		t.Fatalf("kicks+elided=%d, want every command accounted (%d)", s.Kicks+s.ElidedKicks, s.Commands)
	}
}

// TestIRQCoalescingRidesPendingInterrupt: payloads raised while the guest has
// not drained a pending interrupt ride it instead of injecting another, and
// the guest pays one IRQCost for the whole batch.
func TestIRQCoalescingRidesPendingInterrupt(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewIRQLine(env, "irq", batchTestConfig())

	var got []any
	var handled time.Duration
	env.Spawn("guest", func(p *sim.Proc) {
		p.Sleep(60 * us) // stay away from the line while the host bursts
		got = l.WaitBatch(p)
		handled = p.Now()
	})
	env.After(50*us, func() {
		l.Raise(1)
		l.Raise(2)
		l.Raise(3)
	})
	env.Run()

	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("WaitBatch = %v, want [1 2 3] in raise order", got)
	}
	if l.Delivered() != 1 || l.Coalesced() != 2 {
		t.Fatalf("delivered=%d coalesced=%d, want 1/2", l.Delivered(), l.Coalesced())
	}
	if handled != 60*us+IRQCost {
		t.Fatalf("handled at %v, want %v (60us wait + one IRQ cost for the batch)", handled, 60*us+IRQCost)
	}
}

// TestCoalescingOffDeliversEveryInterrupt is the control: with batching off,
// the same burst injects one interrupt per payload.
func TestCoalescingOffDeliversEveryInterrupt(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewIRQLine(env, "irq", Config{})

	env.After(50*us, func() {
		l.Raise(1)
		l.Raise(2)
		l.Raise(3)
	})
	env.Spawn("guest", func(p *sim.Proc) {
		p.Sleep(60 * us)
		for i := 0; i < 3; i++ {
			l.Wait(p)
		}
	})
	env.Run()

	if l.Delivered() != 3 || l.Coalesced() != 0 {
		t.Fatalf("delivered=%d coalesced=%d, want 3/0 with batching off", l.Delivered(), l.Coalesced())
	}
}
