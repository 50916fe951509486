package virtio

import (
	"testing"
	"time"

	"repro/internal/sim"
)

const us = time.Microsecond

// newCmd returns a caller-owned command stamped in r's sequence space.
func newCmd(r *Ring, kind string) *Command {
	c := &Command{Kind: kind}
	r.Stamp(c)
	return c
}

func TestStampNumbersCommandsInOrder(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", Config{})
	var c Command
	r.Stamp(&c)
	first := c.Seq
	r.Stamp(&c) // a reused command takes the next number
	if first != 1 || c.Seq != 2 {
		t.Fatalf("Seq = %d then %d, want 1 then 2", first, c.Seq)
	}
}

func TestDispatchPaysKickAndMarshal(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", Config{})
	var after time.Duration
	env.Spawn("guest", func(p *sim.Proc) {
		r.Dispatch(p, newCmd(r, "write"))
		after = p.Now()
	})
	env.Run()
	if after != PerCommandCost+KickCost {
		t.Fatalf("dispatch cost %v, want %v (1 marshal + 1 kick)", after, PerCommandCost+KickCost)
	}
}

func TestRingFIFODelivery(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRing(env, "q", Config{})
	var got []uint64
	env.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, r.Recv(p).Seq)
		}
	})
	env.Spawn("guest", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.Dispatch(p, newCmd(r, "x"))
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
	r := NewRing(env, "q", Config{})
	var doneAt time.Duration
	env.Spawn("host", func(p *sim.Proc) {
		c := r.Recv(p)
		p.Sleep(100 * us) // host execution
		c.Payload.(*sim.Event).Signal()
	})
	env.Spawn("guest", func(p *sim.Proc) {
		done := sim.NewEvent(env)
		c := newCmd(r, "write")
		c.Payload = done
		r.Dispatch(p, c)
		done.Wait(p) // atomic/synchronous mode
		doneAt = p.Now()
	})
	env.Run()
	if want := PerCommandCost + KickCost + 100*us; doneAt != want {
		t.Fatalf("round trip = %v, want %v", doneAt, want)
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
	r := NewRing(env, "q", Config{})
	env.Spawn("guest", func(p *sim.Proc) {
		r.Dispatch(p, newCmd(r, "a"))
		r.Dispatch(p, newCmd(r, "b"))
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
