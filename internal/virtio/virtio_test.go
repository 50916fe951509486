package virtio

import (
	"testing"
	"time"

	"repro/internal/sim"
)

const us = time.Microsecond

func testConfig() Config {
	return Config{KickCost: 10 * us, IRQCost: 5 * us, PerCommandCost: 1 * us}
}

func TestDispatchPaysKickAndMarshal(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", testConfig())
	var after time.Duration
	env.Spawn("guest", func(p *sim.Proc) {
		r.Dispatch(p, r.NewCommand("write", nil))
		after = p.Now()
	})
	env.Run()
	if after != 11*us {
		t.Fatalf("dispatch cost %v, want 11us (1 marshal + 10 kick)", after)
	}
}

func TestBatchSingleKick(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", testConfig())
	var after time.Duration
	env.Spawn("guest", func(p *sim.Proc) {
		cmds := []*Command{r.NewCommand("a", nil), r.NewCommand("b", nil), r.NewCommand("c", nil)}
		r.DispatchBatch(p, cmds)
		after = p.Now()
	})
	env.Run()
	if after != 13*us {
		t.Fatalf("batch cost %v, want 13us (3 marshal + 1 kick)", after)
	}
	if s := r.Stats(); s.Kicks != 1 || s.Commands != 3 {
		t.Fatalf("stats = %+v, want 1 kick / 3 commands", s)
	}
}

func TestRingFIFODelivery(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", testConfig())
	var got []uint64
	env.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, r.Recv(p).Seq)
		}
	})
	env.Spawn("guest", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.Dispatch(p, r.NewCommand("x", i))
		}
	})
	env.Run()
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("sequence order violated: %v", got)
		}
	}
}

func TestCommandDoneRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", testConfig())
	var doneAt time.Duration
	env.Spawn("host", func(p *sim.Proc) {
		c := r.Recv(p)
		p.Sleep(100 * us) // host execution
		c.Done.Signal()
	})
	env.Spawn("guest", func(p *sim.Proc) {
		c := r.NewCommand("write", nil)
		r.Dispatch(p, c)
		c.Done.Wait(p) // atomic/synchronous mode
		doneAt = p.Now()
	})
	env.Run()
	if doneAt != 111*us {
		t.Fatalf("round trip = %v, want 111us", doneAt)
	}
}

func TestIRQCostsGuestTime(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewIRQLine(env, "irq", testConfig())
	var handled time.Duration
	env.Spawn("guest", func(p *sim.Proc) {
		l.Wait(p)
		handled = p.Now()
	})
	env.After(50*us, func() { l.Raise("done") })
	env.Run()
	if handled != 55*us {
		t.Fatalf("handled at %v, want 55us (50 raise + 5 irq cost)", handled)
	}
	if l.Delivered() != 1 {
		t.Fatalf("Delivered = %d, want 1", l.Delivered())
	}
}

func TestSharedPageLimit(t *testing.T) {
	s := NewSharedPage()
	if !s.Reserve(4096) {
		t.Fatal("should fit exactly one page")
	}
	if s.Reserve(1) {
		t.Fatal("should reject overflow")
	}
}

func TestPendingCount(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", testConfig())
	env.Spawn("guest", func(p *sim.Proc) {
		r.Dispatch(p, r.NewCommand("a", nil))
		r.Dispatch(p, r.NewCommand("b", nil))
	})
	env.Run()
	if r.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", r.Pending())
	}
	env.Spawn("host", func(p *sim.Proc) { r.Recv(p) })
	env.Run()
	if r.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", r.Pending())
	}
}
