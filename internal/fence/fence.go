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
// indices runs low (§4).
//
// Fence retirement is driven purely by simulated completion events, so
// signal/wait interleavings are deterministic: equal seeds retire the same
// fences at the same virtual instants.
package fence

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/virtio"
)

// slotBytes is the shared-page footprint of one fence slot.
const slotBytes = 32

// fenceState tracks a fence's lifecycle.
type fenceState int

const (
	stateActive fenceState = iota
	stateSignaled
)

// Fence is one virtual fence instance. Obtain fences from a Table. A fence
// pointer stays valid after its slot is recycled: it remains signaled, so
// late waiters return immediately.
type Fence struct {
	table *Table
	idx   int
	state fenceState
	ev    sim.Event // by value: one allocation per Alloc, not two
	prov  *prof.Node
}

// SetProvenance records the profiler node of the op that will signal this
// fence, so waiters can attribute their wait to the signaler's critical
// path. Fence objects are never recycled (only slots are), so provenance
// cannot go stale.
func (f *Fence) SetProvenance(n *prof.Node) { f.prov = n }

// Provenance returns the signaling op's profiler node, if recorded.
func (f *Fence) Provenance() *prof.Node {
	if f == nil {
		return nil
	}
	return f.prov
}

// Signaled reports whether the fence has retired. This is the MMIO status
// query: free of transport cost.
func (f *Fence) Signaled() bool { return f.state == stateSignaled }

// Signal retires the fence, waking all waiters. Signaling twice panics:
// fences take effect in pairs and a double signal is a protocol bug.
func (f *Fence) Signal() {
	if f.state != stateActive {
		panic(fmt.Sprintf("fence: double signal of fence %d", f.idx))
	}
	f.state = stateSignaled
	f.ev.Signal()
	t := f.table
	t.maybeRecycle(false)
	if t.tr != nil {
		t.tr.Instant(t.tk, "signal")
		t.tr.Count(t.tk, "in_use", float64(t.InUse()))
	}
	t.inUseGauge.Set(float64(t.InUse()))
}

// Wait parks p until the fence retires. Multiple waiters are allowed.
func (f *Fence) Wait(p *sim.Proc) { f.ev.Wait(p) }

// WaitTimeout parks p until the fence retires or d elapses, reporting
// whether the fence retired. It is the watchdog face of Wait: when the
// signaling device is stalled, the waiter gets a diagnosable timeout
// instead of hanging the simulation.
func (f *Fence) WaitTimeout(p *sim.Proc, d sim.Time) bool {
	if f.state == stateSignaled {
		return true
	}
	return f.ev.WaitTimeout(p, d)
}

// Table is the virtual fence table: a fixed set of fence slots bounded by
// one shared guest page.
type Table struct {
	env   *sim.Env
	page  *virtio.SharedPage
	slots []*Fence // current occupant per slot; nil when unused
	free  []int    // unused slot indices, handed out from the front
	// freeBuf is the whole backing array behind free: reclaiming slots
	// slides free back to its front instead of reallocating.
	freeBuf []int

	// stats
	allocs   int
	recycles int
	peak     int

	tr         *obs.Tracer
	tk         obs.Track
	allocCtr   *obs.Counter
	recycleCtr *obs.Counter
	inUseGauge *obs.Gauge
}

// NewTable returns a table backed by a fresh 4 KiB shared page.
func NewTable(env *sim.Env) *Table {
	page := virtio.NewSharedPage()
	n := page.Limit / slotBytes
	if !page.Reserve(n * slotBytes) {
		panic("fence: slot layout exceeds page")
	}
	t := &Table{env: env, page: page, slots: make([]*Fence, n), freeBuf: make([]int, n)}
	for i := range t.freeBuf {
		t.freeBuf[i] = i
	}
	t.free = t.freeBuf
	if t.tr = env.Tracer(); t.tr != nil {
		t.tk = t.tr.Track("fences")
	}
	if reg := env.Metrics(); reg != nil {
		t.allocCtr = reg.Counter("fence.allocs")
		t.recycleCtr = reg.Counter("fence.recycles")
		t.inUseGauge = reg.Gauge("fence.in_use")
	}
	// Closing the environment aborts every process mid-protocol, so active
	// fences whose signalers unwound would otherwise pin their slots forever
	// (a chunked transfer's alloc-before-signal holds up to two). Drain the
	// table once the processes are gone: no signaler remains, so every
	// occupied slot is reclaimable.
	env.OnClose(t.drain)
	return t
}

// drain releases every occupied slot, active or signaled. Only called after
// the owning environment has closed — fence pointers stay valid (late
// status queries see whatever state the fence died in), but the table is
// empty again, so InUse reports zero and leak checks stay meaningful across
// repeated build/Close cycles.
func (t *Table) drain() {
	t.rewindFree()
	for i, f := range t.slots {
		if f != nil {
			t.slots[i] = nil
			t.free = append(t.free, i)
		}
	}
}

// Capacity returns the total number of fence slots (128 for 4 KiB / 32 B).
func (t *Table) Capacity() int { return len(t.slots) }

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
	for i, f := range t.slots {
		if f != nil && f.state == stateSignaled {
			t.slots[i] = nil
			t.free = append(t.free, i)
			t.recycles++
			reclaimed++
		}
	}
	if reclaimed > 0 {
		if t.tr != nil {
			t.tr.Instant(t.tk, "recycle")
		}
		t.recycleCtr.Add(int64(reclaimed))
	}
}

// rewindFree slides the unused indices, in order, to the front of freeBuf,
// so the appends that return reclaimed slots never outgrow it.
func (t *Table) rewindFree() {
	t.free = t.freeBuf[:copy(t.freeBuf, t.free)]
}

// Alloc reserves a fence slot. It panics when every slot holds an active
// unsignaled fence — a full table of unretired fences means a deadlocked
// protocol, not a capacity problem.
func (t *Table) Alloc() *Fence {
	if len(t.free) == 0 {
		t.maybeRecycle(true)
	}
	if len(t.free) == 0 {
		panic("fence: table exhausted with no signaled slots to recycle")
	}
	idx := t.free[0]
	t.free = t.free[1:]
	f := &Fence{table: t, idx: idx, state: stateActive, ev: *sim.NewEvent(t.env)}
	t.slots[idx] = f
	t.allocs++
	if in := t.InUse(); in > t.peak {
		t.peak = in
	}
	if t.tr != nil {
		t.tr.Instant(t.tk, "alloc")
		t.tr.Count(t.tk, "in_use", float64(t.InUse()))
	}
	t.allocCtr.Inc()
	t.inUseGauge.Set(float64(t.InUse()))
	return f
}
