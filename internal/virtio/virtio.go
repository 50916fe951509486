// Package virtio models the paravirtual guest-host transport of vSoC (§3.1,
// §4): command rings carrying driver commands from guest kernel drivers to
// host virtual devices, guest-notify "kicks" that cost a VM-exit, host
// interrupts that cost a VM-entry/exit pair on the guest side, and shared
// MMIO pages for cheap status sharing (the virtual fence table).
//
// The transport costs here are what make guest-host control-flow
// synchronization expensive, which is the problem the virtual command fence
// mechanism (§3.4) exists to avoid.
//
// All transport costs are charged in virtual time on the deterministic
// kernel, so equal seeds replay identical notification schedules. Every
// dispatch kicks: the fence table is the one mechanism that cuts
// notifications. The only interrupts are an atomic op's per-command round
// trips (Ring.RoundTrips), each of which pays and counts one kick and one
// interrupt; no interrupt is queued.
package virtio

import (
	"time"

	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// CostScale is a dynamic multiplier on transport costs, shared by every
// ring and device built from one Config. The fault layer drives it to
// model kick/IRQ latency spikes (a saturated hypervisor exit path); the
// zero factor and a nil receiver both mean nominal cost.
type CostScale struct {
	factor float64
}

// NewCostScale returns a scale at nominal (factor 1).
func NewCostScale() *CostScale { return &CostScale{factor: 1} }

// Set installs the multiplier; f <= 0 panics (a transport cannot be free).
func (s *CostScale) Set(f float64) {
	if f <= 0 {
		panic("virtio: cost scale factor must be positive")
	}
	s.factor = f
}

// Factor returns the current multiplier, 1 for a nil or unset scale.
func (s *CostScale) Factor() float64 {
	if s == nil || s.factor == 0 {
		return 1
	}
	return s.factor
}

// The transport cost model mirrors measured KVM-class transport costs: tens
// of microseconds per exit once emulator dispatch overhead is included.
const (
	// KickCost is the guest-side cost of notifying the host after
	// publishing descriptors (a VM-exit).
	KickCost = 20 * time.Microsecond
	// IRQCost is the guest-side cost of fielding a host interrupt.
	IRQCost = 15 * time.Microsecond
	// PerCommandCost is the marshaling cost per command on the guest side.
	PerCommandCost = 2 * time.Microsecond
)

// Config holds the transport's per-emulator settings.
type Config struct {
	// Scale, when non-nil, multiplies every transport cost at charge time.
	// It is shared (by pointer) across the rings and devices of one
	// emulator so a single injected spike slows them all.
	Scale *CostScale
}

// Scaled applies the config's dynamic cost scale to a duration.
func (c Config) Scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.Scale.Factor())
}

// Stats counts transport events for the overhead reports.
type Stats struct {
	Commands int
	Kicks    int
	// ElidedKicks is always zero: every dispatch kicks. It stays because
	// the benchmark module reads it into its virtio.elided_kicks metric
	// and its run digest.
	ElidedKicks int
}

// Command is one unit of work dispatched from a guest driver to a host
// virtual device. The driver owns the command and may reuse it once the
// host has finished with it; Stamp gives each use its sequence number.
type Command struct {
	Kind    string
	Payload any
	Seq     uint64
}

// Ring is a virtqueue: a FIFO of commands from a guest driver to its host
// device counterpart.
type Ring struct {
	cfg   Config
	q     *sim.Queue[*Command]
	seq   uint64
	stats Stats
	irq   IRQLine

	tr *obs.Tracer
	tk obs.Track
	pf *prof.Profiler
}

// NewRing returns a ring with unbounded descriptor capacity (flow control
// is layered above, see internal/flowcontrol).
func NewRing(env *sim.Env, name string, cfg Config) *Ring {
	r := &Ring{cfg: cfg, q: sim.NewQueue[*Command](env, 0)}
	if r.tr = env.Tracer(); r.tr != nil {
		r.tk = r.tr.Track("vq:" + name)
	}
	r.pf = env.Profiler()
	if reg := env.Metrics(); reg != nil {
		reg.Count("vq."+name+".commands", &r.stats.Commands)
		reg.Count("vq."+name+".kicks", &r.stats.Kicks)
	}
	return r
}

// Stamp gives c the next number in this ring's sequence space (the
// trace's async id for the command's queue residency).
func (r *Ring) Stamp(c *Command) {
	r.seq++
	c.Seq = r.seq
}

// Dispatch publishes one command and kicks the host. The calling guest
// process pays marshaling plus one VM-exit; a device that batches several
// commands behind one kick (§3.4) pays the marshaling of the others itself.
func (r *Ring) Dispatch(p *sim.Proc, c *Command) {
	var sp obs.Span
	if r.tr != nil {
		sp = r.tr.Begin(r.tk, "dispatch")
	}
	dispatchStart := p.Now()
	p.Sleep(r.cfg.Scaled(PerCommandCost + KickCost))
	if r.pf != nil {
		r.pf.Charge(p, "virtio:kick", dispatchStart)
	}
	r.stats.Commands++
	if r.tr != nil {
		// Queue-residency leg: ends when the host executor receives the
		// command in Recv.
		r.tr.AsyncBegin(r.tk, "queued", c.Seq)
	}
	r.q.Put(p, c)
	r.stats.Kicks++
	if r.tr != nil {
		r.tr.End(r.tk, sp)
		r.tr.Instant(r.tk, "kick")
		r.tr.Count(r.tk, "pending", float64(r.q.Len()))
	}
}

// RoundTrips charges n guest-host round trips in guest process p, each a
// marshaled command, its kick and the host interrupt that completes it: an
// atomic op pays one per constituent command before its final Dispatch
// (§3.4). The n trips are one interval under the profiler's virtio:marshal
// component, slept even when n is 0 (a zero sleep is still one event in
// the run's order), and count n kicks and n interrupts.
func (r *Ring) RoundTrips(p *sim.Proc, n int) {
	start := p.Now()
	p.Sleep(r.cfg.Scaled(time.Duration(n) * (PerCommandCost + KickCost + IRQCost)))
	if r.pf != nil {
		r.pf.Charge(p, "virtio:marshal", start)
	}
	r.stats.Kicks += n
	r.irq.delivered += n
}

// Recv blocks the host device process until a command arrives.
func (r *Ring) Recv(p *sim.Proc) *Command {
	c := r.q.Get(p)
	if r.tr != nil {
		r.tr.AsyncEnd(r.tk, "queued", c.Seq)
		r.tr.Count(r.tk, "pending", float64(r.q.Len()))
	}
	return c
}

// Pending returns the queued command count.
func (r *Ring) Pending() int { return r.q.Len() }

// Stats returns transport counters.
func (r *Ring) Stats() Stats { return r.stats }

// IRQ returns the ring's host-to-guest interrupt line.
func (r *Ring) IRQ() *IRQLine { return &r.irq }

// IRQLine is a ring's host-to-guest interrupt line. It counts the
// interrupts the guest fielded, one per round trip (RoundTrips). No
// ordering mode completes an op by interrupt (the paper's event-driven
// paradigm is not modelled), so nothing waits on the line.
type IRQLine struct {
	delivered int
}

// Delivered returns the number of interrupts the guest fielded.
func (l *IRQLine) Delivered() int { return l.delivered }

// SharedPage models a guest page shared with the host via MMIO (§4): both
// sides read and write it without transport cost. Capacity is fixed at one
// 4 KiB page; the fence table recycles slots to stay within it.
type SharedPage struct {
	Size  int // bytes used
	Limit int // page size
}

// NewSharedPage returns an empty 4 KiB shared page.
func NewSharedPage() *SharedPage { return &SharedPage{Limit: 4096} }

// Reserve claims n bytes, reporting whether they fit.
func (s *SharedPage) Reserve(n int) bool {
	if s.Size+n > s.Limit {
		return false
	}
	s.Size += n
	return true
}
