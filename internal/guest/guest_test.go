package guest

import (
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/svm"
)

const ms = time.Millisecond

func TestVSyncPeriodicTicks(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	v := NewVSync(env, 10*ms)
	var ticks []time.Duration
	env.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			ticks = append(ticks, v.Wait(p))
		}
	})
	env.RunUntil(100 * ms)
	want := []time.Duration{10 * ms, 20 * ms, 30 * ms}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestVSyncMultipleWaitersSameTick(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	v := NewVSync(env, 10*ms)
	var a, b time.Duration
	env.Spawn("a", func(p *sim.Proc) { a = v.Wait(p) })
	env.Spawn("b", func(p *sim.Proc) { b = v.Wait(p) })
	env.RunUntil(50 * ms)
	if a != 10*ms || b != 10*ms {
		t.Fatalf("waiters woke at %v/%v, want both at first tick", a, b)
	}
}

func TestVSyncLateWaiterCatchesNextTick(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	v := NewVSync(env, 10*ms)
	var woke time.Duration
	env.Spawn("late", func(p *sim.Proc) {
		p.Sleep(15 * ms) // between tick 1 and 2
		woke = v.Wait(p)
	})
	env.RunUntil(50 * ms)
	if woke != 20*ms {
		t.Fatalf("late waiter woke at %v, want 20ms", woke)
	}
}

func newModule(t *testing.T) (*sim.Env, *svm.Module) {
	t.Helper()
	env := sim.NewEnv(5)
	mach := hostsim.HighEndDesktop(env)
	mgr := svm.NewManager(env, mach, svm.DefaultConfig())
	mgr.RegisterVirtualDevice(0, "vcpu")
	mgr.RegisterPhysicalDevice(0, "cpu", mach.DRAM)
	mod := svm.NewModule(mgr, svm.Accessor{Virtual: 0, Physical: 0, Domain: mach.DRAM, Name: "cpu"})
	t.Cleanup(env.Close)
	return env, mod
}

func TestBufferQueueCycle(t *testing.T) {
	env, mod := newModule(t)
	env.Spawn("test", func(p *sim.Proc) {
		q, err := NewBufferQueue(p, mod, 3, 4*hostsim.MiB)
		if err != nil {
			t.Errorf("NewBufferQueue: %v", err)
			return
		}
		if q.free.Len() != 3 || q.FilledCount() != 0 {
			t.Errorf("fresh queue: free=%d filled=%d", q.free.Len(), q.FilledCount())
		}
		b := q.Dequeue(p)
		b.Seq = 1
		b.PTS = 42 * ms
		q.Queue(p, b)
		got := q.Acquire(p)
		if got.Seq != 1 || got.PTS != 42*ms {
			t.Errorf("acquired wrong buffer: %+v", got)
		}
		q.Release(p, got)
		if got.PTS != 0 {
			t.Error("Release should clear frame metadata")
		}
		if q.free.Len() != 3 {
			t.Errorf("free=%d after release, want 3", q.free.Len())
		}
	})
	env.Run()
}

func TestBufferQueueProducerBlocksWhenExhausted(t *testing.T) {
	env, mod := newModule(t)
	var blockedUntil time.Duration
	env.Spawn("test", func(p *sim.Proc) {
		q, err := NewBufferQueue(p, mod, 2, hostsim.MiB)
		if err != nil {
			t.Errorf("NewBufferQueue: %v", err)
			return
		}
		env.Spawn("consumer", func(cp *sim.Proc) {
			cp.Sleep(20 * ms)
			b := q.Acquire(cp)
			q.Release(cp, b)
		})
		q.Queue(p, q.Dequeue(p))
		q.Queue(p, q.Dequeue(p))
		_ = q.Dequeue(p) // blocks until consumer releases
		blockedUntil = p.Now()
	})
	env.RunUntil(time.Second)
	if blockedUntil < 20*ms {
		t.Fatalf("producer resumed at %v, want >= 20ms", blockedUntil)
	}
}

func TestBufferQueueFIFODelivery(t *testing.T) {
	env, mod := newModule(t)
	env.Spawn("test", func(p *sim.Proc) {
		q, _ := NewBufferQueue(p, mod, 3, hostsim.MiB)
		for i := int64(1); i <= 3; i++ {
			b := q.Dequeue(p)
			b.Seq = i
			q.Queue(p, b)
		}
		for i := int64(1); i <= 3; i++ {
			if got := q.Acquire(p); got.Seq != i {
				t.Errorf("acquired seq %d, want %d", got.Seq, i)
			}
		}
	})
	env.Run()
}

func TestBuffersDistinctRegions(t *testing.T) {
	env, mod := newModule(t)
	env.Spawn("test", func(p *sim.Proc) {
		q, _ := NewBufferQueue(p, mod, 3, hostsim.MiB)
		seen := map[svm.RegionID]bool{}
		for i := 0; i < 3; i++ {
			b := q.Dequeue(p)
			if seen[b.Region] {
				t.Error("duplicate region across buffers")
			}
			seen[b.Region] = true
			q.Queue(p, b)
		}
	})
	env.Run()
}
