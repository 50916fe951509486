package fence

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

const ms = time.Millisecond

func TestSignalWaitPair(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	f := tab.Alloc()
	var woke time.Duration
	env.Spawn("waiter", func(p *sim.Proc) {
		f.Wait(p)
		woke = p.Now()
	})
	env.After(5*ms, f.Signal)
	env.Run()
	if woke != 5*ms {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if !f.Signaled() {
		t.Fatal("fence should read signaled")
	}
}

// TestAllocMakesOneAllocation pins the fence's inline event and the
// rewinding free list: an Alloc/Signal cycle allocates the Fence and nothing
// else, across many slot recycles.
func TestAllocMakesOneAllocation(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	allocs := testing.AllocsPerRun(1000, func() { tab.Alloc().Signal() })
	if allocs != 1 {
		t.Fatalf("Alloc/Signal allocates %.2f per fence, want 1", allocs)
	}
}

func TestMultipleWaitersOneSignal(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	f := tab.Alloc()
	woke := 0
	for i := 0; i < 3; i++ {
		env.Spawn("w", func(p *sim.Proc) {
			f.Wait(p)
			woke++
		})
	}
	env.After(1*ms, f.Signal)
	env.Run()
	if woke != 3 {
		t.Fatalf("woke = %d, want 3 (multiple waits on one signal are allowed)", woke)
	}
}

func TestWaitAfterSignalReturnsImmediately(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	f := tab.Alloc()
	f.Signal()
	var woke time.Duration = -1
	env.Spawn("late", func(p *sim.Proc) {
		p.Sleep(2 * ms)
		f.Wait(p)
		woke = p.Now()
	})
	env.Run()
	if woke != 2*ms {
		t.Fatalf("woke at %v, want 2ms", woke)
	}
}

func TestDoubleSignalPanics(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	f := tab.Alloc()
	f.Signal()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double signal")
		}
	}()
	f.Signal()
}

func TestTableCapacityIsOnePage(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	if tab.Capacity() != 4096/slotBytes {
		t.Fatalf("Capacity = %d, want %d", tab.Capacity(), 4096/slotBytes)
	}
}

func TestIndexRecyclingUnderPressure(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	// Allocate and immediately signal far more fences than slots: index
	// recycling must keep this working within one page.
	n := tab.Capacity() * 10
	for i := 0; i < n; i++ {
		f := tab.Alloc()
		f.Signal()
	}
	if tab.Allocs() != n {
		t.Fatalf("Allocs = %d, want %d", tab.Allocs(), n)
	}
	if tab.Recycles() == 0 {
		t.Fatal("expected recycling to have occurred")
	}
	if tab.Peak() > tab.Capacity() {
		t.Fatalf("Peak = %d exceeds capacity %d", tab.Peak(), tab.Capacity())
	}
}

func TestStaleFenceHandleStaysSignaledAfterRecycle(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	old := tab.Alloc()
	old.Signal()
	// Force heavy recycling so old's slot is certainly reused.
	for i := 0; i < tab.Capacity()*3; i++ {
		tab.Alloc().Signal()
	}
	if !old.Signaled() {
		t.Fatal("stale handle must remain signaled after slot recycling")
	}
	// A late waiter on the stale handle returns immediately.
	ran := false
	env.Spawn("late", func(p *sim.Proc) {
		old.Wait(p)
		ran = true
	})
	env.Run()
	if !ran {
		t.Fatal("late waiter on recycled fence hung")
	}
}

func TestExhaustionWithAllActivePanics(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	for i := 0; i < tab.Capacity(); i++ {
		tab.Alloc() // never signaled
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when all slots active")
		}
	}()
	tab.Alloc()
}

func TestHappensBeforeAcrossQueues(t *testing.T) {
	// The Fig. 9c scenario: a codec queue writes then signals; a GPU queue
	// waits then reads. The read must never start before the write ends,
	// while the guest-side dispatcher never blocks.
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	f := tab.Alloc()
	var writeEnd, readStart time.Duration
	env.Spawn("codec-queue", func(p *sim.Proc) {
		p.Sleep(10 * ms) // the SVM write
		writeEnd = p.Now()
		f.Signal()
	})
	env.Spawn("gpu-queue", func(p *sim.Proc) {
		f.Wait(p)
		readStart = p.Now()
	})
	env.Run()
	if readStart < writeEnd {
		t.Fatalf("read started %v before write ended %v", readStart, writeEnd)
	}
}

func TestQuickFenceOrderingUnderRandomSignalTimes(t *testing.T) {
	// Property: for any set of fences signaled at arbitrary times, every
	// waiter wakes at exactly its fence's signal time (or immediately if
	// already signaled), and recycling pressure never breaks a handle.
	f := func(seed int64, delaysRaw []uint8) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		if len(delaysRaw) > 64 {
			delaysRaw = delaysRaw[:64]
		}
		env := sim.NewEnv(seed)
		defer env.Close()
		tab := NewTable(env)
		ok := true
		for _, d := range delaysRaw {
			d := time.Duration(d) * time.Millisecond
			fn := tab.Alloc()
			env.After(d, fn.Signal)
			want := d
			env.Spawn("waiter", func(p *sim.Proc) {
				fn.Wait(p)
				if p.Now() != want {
					ok = false
				}
				if !fn.Signaled() {
					ok = false
				}
			})
		}
		env.RunUntil(time.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRecycledHandlesStaySignaled(t *testing.T) {
	// Property: however many allocate/signal cycles pass, an old signaled
	// handle always reads signaled.
	f := func(rounds uint8) bool {
		env := sim.NewEnv(1)
		defer env.Close()
		tab := NewTable(env)
		old := tab.Alloc()
		old.Signal()
		for i := 0; i < int(rounds)*4; i++ {
			tab.Alloc().Signal()
		}
		return old.Signaled()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	f := tab.Alloc()
	env.Spawn("waiter", func(p *sim.Proc) {
		if f.WaitTimeout(p, 10*ms) {
			t.Error("WaitTimeout on a never-signaled fence returned true")
		}
		if p.Now() != 10*ms {
			t.Errorf("woke at %v, want 10ms", p.Now())
		}
	})
	env.RunUntil(time.Second)
}

func TestWaitTimeoutSignaledInTime(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	f := tab.Alloc()
	env.After(5*ms, f.Signal)
	env.Spawn("waiter", func(p *sim.Proc) {
		if !f.WaitTimeout(p, 10*ms) {
			t.Error("WaitTimeout missed a signal inside the window")
		}
		if p.Now() != 5*ms {
			t.Errorf("woke at %v, want 5ms", p.Now())
		}
	})
	env.RunUntil(time.Second)
}

func TestWaitTimeoutAlreadySignaled(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)
	f := tab.Alloc()
	f.Signal()
	env.Spawn("waiter", func(p *sim.Proc) {
		if !f.WaitTimeout(p, 10*ms) {
			t.Error("WaitTimeout on a signaled fence returned false")
		}
		if p.Now() != 0 {
			t.Errorf("pre-signaled wait slept until %v, want immediate return", p.Now())
		}
	})
	env.RunUntil(time.Second)
}

func TestRecyclingUnderPressureKeepsStaleFencesSignaled(t *testing.T) {
	// Churn far past table capacity so every slot index is recycled many
	// times over, while late waiters hold pointers to long-recycled fences.
	// A stale pointer must stay signaled — it must never alias the slot's
	// new (active) occupant.
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)

	const churn = 1000 // ~8 full table generations
	env.Spawn("churn", func(p *sim.Proc) {
		var stale []*Fence
		for i := 0; i < churn; i++ {
			f := tab.Alloc()
			f.Signal()
			stale = append(stale, f)
			if len(stale) > 3*tab.Capacity() {
				stale = stale[1:]
			}
			// Late waiter on a fence whose slot has long been recycled.
			old := stale[0]
			env.Spawn("late-waiter", func(p *sim.Proc) {
				start := p.Now()
				old.Wait(p)
				if p.Now() != start {
					t.Errorf("late wait on recycled fence blocked %v", p.Now()-start)
				}
			})
			p.Sleep(time.Microsecond)
		}
		for _, f := range stale {
			if !f.Signaled() {
				t.Errorf("stale fence %d lost its signaled state after recycle", f.idx)
			}
		}
	})
	env.RunUntil(time.Minute)

	if tab.Allocs() != churn {
		t.Fatalf("Allocs = %d, want %d", tab.Allocs(), churn)
	}
	if tab.Peak() > tab.Capacity() {
		t.Fatalf("Peak %d exceeds capacity %d", tab.Peak(), tab.Capacity())
	}
	if tab.Recycles()+tab.Capacity() < tab.Allocs() {
		t.Fatalf("accounting broken: %d allocs need at least %d recycles, saw %d",
			tab.Allocs(), tab.Allocs()-tab.Capacity(), tab.Recycles())
	}
	if tab.InUse() != tab.Allocs()-tab.Recycles() {
		t.Fatalf("InUse %d != Allocs %d - Recycles %d",
			tab.InUse(), tab.Allocs(), tab.Recycles())
	}
}

func TestRecyclingNeverReclaimsActiveFences(t *testing.T) {
	// Hold a block of active fences while churning the rest of the table:
	// recycling pressure must only ever reclaim signaled slots.
	env := sim.NewEnv(1)
	defer env.Close()
	tab := NewTable(env)

	held := make([]*Fence, 0, 100)
	for i := 0; i < 100; i++ {
		held = append(held, tab.Alloc())
	}
	for i := 0; i < 500; i++ {
		f := tab.Alloc()
		f.Signal()
	}
	seen := make(map[int]bool)
	for _, f := range held {
		if f.Signaled() {
			t.Fatalf("active fence %d was signaled by recycling", f.idx)
		}
		if seen[f.idx] {
			t.Fatalf("two active fences share slot %d", f.idx)
		}
		seen[f.idx] = true
		if tab.slots[f.idx] != f {
			t.Fatalf("slot %d no longer holds its active fence", f.idx)
		}
	}
	for _, f := range held {
		f.Signal()
	}
}
