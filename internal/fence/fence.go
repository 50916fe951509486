// Package fence implements vSoC's virtual command fences (§3.4): virtualized
// signal/wait instruction pairs attached to guest-dispatched commands, so
// that happens-before order semantics travel with the command stream and are
// enforced entirely in the host — without blocking guest drivers (the
// "atomic" paradigm) and without extra interrupt VM-exits (the
// "event-driven" paradigm).
//
// A signal fence retires when the operations preceding it in its command
// queue — including any asynchronous device work they issued — have
// completed. A wait fence parks its queue until the paired signal retires.
// Multiple waits on one signal are allowed.
//
// Fence status lives in a virtual fence table limited to a single 4 KiB
// guest page shared with the host over MMIO, so status queries are free of
// transport cost; signaled indices are recycled when the supply of unused
// indices runs low (§4). A Fence is a value handle, a slot index plus a
// generation, and slots are recycled in place, so handing out a fence
// allocates no memory; a handle whose slot has since been recycled reads as
// signaled.
//
// Fence retirement is driven purely by simulated completion events, so
// signal/wait interleavings are deterministic: equal seeds retire the same
// fences at the same virtual instants.
package fence

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/virtio"
)

// slotBytes is the shared-page footprint of one fence slot.
const slotBytes = 32

// slotState tracks a slot's lifecycle.
type slotState int

const (
	slotFree slotState = iota
	slotActive
	slotSignaled
)

// slot is one fence-table entry: the occupant's state, the event its
// waiters park on (re-armed for each occupant), and the generation naming
// the occupant.
type slot struct {
	gen   uint64 // the occupant's allocation serial, 0 before the first
	state slotState
	ev    sim.Event
}

// Fence is a handle on one virtual fence: a slot index plus the generation
// of the allocation that handed it out. Obtain fences from a Table. A handle
// outlives its slot's recycling: once the generation has moved on, it
// reads as signaled, so late waiters return immediately. The zero Fence
// means "no fence" and reads as signaled too.
type Fence struct {
	t    *Table
	slot int
	gen  uint64
}

// live returns the slot f names while f is still its occupant, nil for the
// zero Fence or once the slot has been handed to a later fence.
func (f Fence) live() *slot {
	if f.t == nil {
		return nil
	}
	if s := &f.t.slots[f.slot]; s.gen == f.gen {
		return s
	}
	return nil
}

// Signaled reports whether the fence has retired. This is the MMIO status
// query: free of transport cost.
func (f Fence) Signaled() bool {
	s := f.live()
	return s == nil || s.state != slotActive
}

// Signal retires the fence, waking all waiters. Signaling twice panics:
// fences take effect in pairs and a double signal is a protocol bug. A
// handle whose slot has been recycled was necessarily signaled already.
func (f Fence) Signal() {
	s := f.live()
	if s == nil || s.state != slotActive {
		panic(fmt.Sprintf("fence: double signal of fence %d", f.slot))
	}
	s.state = slotSignaled
	s.ev.Signal()
	t := f.t
	t.maybeRecycle(false)
	if t.tr != nil {
		t.tr.Instant(t.tk, "signal")
		t.tr.Count(t.tk, "in_use", float64(t.InUse()))
	}
	if t.inUseGauge != nil {
		t.inUseGauge.Set(float64(t.InUse()))
	}
}

// Wait parks p until the fence retires. Multiple waiters are allowed.
func (f Fence) Wait(p *sim.Proc) {
	if s := f.live(); s != nil {
		s.ev.Wait(p)
	}
}

// WaitTimeout parks p until the fence retires or d elapses, reporting
// whether the fence retired. It is the watchdog face of Wait: when the
// signaling device is stalled, the waiter gets a diagnosable timeout
// instead of hanging the simulation.
func (f Fence) WaitTimeout(p *sim.Proc, d sim.Time) bool {
	s := f.live()
	if s == nil || s.state != slotActive {
		return true
	}
	return s.ev.WaitTimeout(p, d)
}

// Table is the virtual fence table: a fixed set of fence slots bounded by
// one shared guest page. The slots are built on the first Alloc, so an
// emulator whose ordering mode never allocates a fence pays nothing for
// its table.
type Table struct {
	env      *sim.Env
	capacity int
	slots    []slot // nil until the first Alloc
	free     []int  // unused slot indices, handed out from the front
	// freeBuf is the whole backing array behind free: reclaiming slots
	// slides free back to its front instead of reallocating.
	freeBuf []int

	// stats; allocs doubles as the generation counter, so every fence
	// handed out carries a distinct generation.
	allocs   int
	recycles int
	peak     int

	tr         *obs.Tracer
	tk         obs.Track
	inUseGauge *obs.Gauge
}

// NewTable returns a table bounded by a fresh 4 KiB shared page.
func NewTable(env *sim.Env) *Table {
	page := virtio.NewSharedPage()
	n := page.Limit / slotBytes
	if !page.Reserve(n * slotBytes) {
		panic("fence: slot layout exceeds page")
	}
	t := &Table{env: env, capacity: n}
	if t.tr = env.Tracer(); t.tr != nil {
		t.tk = t.tr.Track("fences")
	}
	if reg := env.Metrics(); reg != nil {
		reg.Count("fence.allocs", &t.allocs)
		reg.Count("fence.recycles", &t.recycles)
		t.inUseGauge = reg.Gauge("fence.in_use")
	}
	return t
}

// Capacity returns the total number of fence slots (128 for 4 KiB / 32 B).
func (t *Table) Capacity() int { return t.capacity }

// InUse returns occupied slots (active or signaled-but-unrecycled).
func (t *Table) InUse() int { return len(t.slots) - len(t.free) }

// Allocs returns the number of fences handed out.
func (t *Table) Allocs() int { return t.allocs }

// Recycles returns the number of signaled slots reclaimed.
func (t *Table) Recycles() int { return t.recycles }

// Peak returns the maximum concurrently occupied slot count observed.
func (t *Table) Peak() int { return t.peak }

// lowWater is the unused-index threshold below which signaled slots are
// recycled.
const lowWater = 16

// maybeRecycle reclaims signaled slots when the unused supply is low, or
// unconditionally when force is set.
func (t *Table) maybeRecycle(force bool) {
	if !force && len(t.free) >= lowWater {
		return
	}
	t.rewindFree()
	reclaimed := 0
	for i := range t.slots {
		if s := &t.slots[i]; s.state == slotSignaled {
			s.state = slotFree
			t.free = append(t.free, i)
			t.recycles++
			reclaimed++
		}
	}
	if reclaimed > 0 && t.tr != nil {
		t.tr.Instant(t.tk, "recycle")
	}
}

// rewindFree slides the unused indices, in order, to the front of freeBuf,
// so the appends that return reclaimed slots never outgrow it.
func (t *Table) rewindFree() {
	t.free = t.freeBuf[:copy(t.freeBuf, t.free)]
}

// buildPage lays out the slots on the first Alloc.
func (t *Table) buildPage() {
	t.slots = make([]slot, t.capacity)
	t.freeBuf = make([]int, t.capacity)
	for i := range t.slots {
		t.slots[i].ev = *sim.NewEvent(t.env)
		t.freeBuf[i] = i
	}
	t.free = t.freeBuf
}

// Alloc reserves a fence slot. It panics when every slot holds an active
// unsignaled fence — a full table of unretired fences means a deadlocked
// protocol, not a capacity problem.
func (t *Table) Alloc() Fence {
	if t.slots == nil {
		t.buildPage()
	}
	if len(t.free) == 0 {
		t.maybeRecycle(true)
	}
	if len(t.free) == 0 {
		panic("fence: table exhausted with no signaled slots to recycle")
	}
	idx := t.free[0]
	t.free = t.free[1:]
	t.allocs++
	s := &t.slots[idx]
	s.gen = uint64(t.allocs)
	s.state = slotActive
	s.ev.Reset()
	if in := t.InUse(); in > t.peak {
		t.peak = in
	}
	if t.tr != nil {
		t.tr.Instant(t.tk, "alloc")
		t.tr.Count(t.tk, "in_use", float64(t.InUse()))
	}
	if t.inUseGauge != nil {
		t.inUseGauge.Set(float64(t.InUse()))
	}
	return Fence{t: t, slot: idx, gen: s.gen}
}
