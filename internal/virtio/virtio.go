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
// kernel. The notification-batching layer (batch.go) is gated on
// BatchConfig.Enabled: off, the transport is byte-identical to the
// pre-batching implementation; on, equal seeds still replay identical
// notification schedules.
package virtio

import (
	"time"

	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// CostScale is a dynamic multiplier on transport costs, shared by every
// ring and IRQ line built from one Config. The fault layer drives it to
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

// Config holds the transport cost model.
type Config struct {
	// KickCost is the guest-side cost of notifying the host after
	// publishing descriptors (a VM-exit).
	KickCost time.Duration
	// IRQCost is the guest-side cost of fielding a host interrupt.
	IRQCost time.Duration
	// PerCommandCost is the marshaling cost per command on the guest side.
	PerCommandCost time.Duration
	// Scale, when non-nil, multiplies every transport cost at charge time.
	// It is shared (by pointer) across the rings and IRQ lines of one
	// emulator so a single injected spike slows them all.
	Scale *CostScale
	// Batch configures the adaptive notification-batching layer (doorbell
	// suppression, IRQ coalescing, coherence push batching). The zero value
	// disables it and the transport behaves exactly as without the layer.
	Batch BatchConfig
}

// Scaled applies the config's dynamic cost scale to a duration.
func (c Config) Scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.Scale.Factor())
}

// DefaultConfig mirrors measured KVM-class transport costs: tens of
// microseconds per exit once emulator dispatch overhead is included.
func DefaultConfig() Config {
	return Config{
		KickCost:       20 * time.Microsecond,
		IRQCost:        15 * time.Microsecond,
		PerCommandCost: 2 * time.Microsecond,
	}
}

// Stats counts transport events for the overhead reports.
type Stats struct {
	Commands int
	Kicks    int
	// ElidedKicks counts dispatches whose VM-exit was suppressed because
	// the host executor was still processing (event-index semantics).
	// Always zero with batching off.
	ElidedKicks int
}

// Command is one unit of work dispatched from a guest driver to a host
// virtual device.
type Command struct {
	Kind    string
	Payload any
	Seq     uint64
	// Done fires when the host finishes executing the command. Guest
	// drivers wait on it only in synchronous (atomic) modes.
	Done *sim.Event
	// EnqueuedAt is the virtual time the guest dispatched the command.
	EnqueuedAt time.Duration
}

// Ring is a virtqueue: a FIFO of commands from a guest driver to its host
// device counterpart.
type Ring struct {
	Name  string
	env   *sim.Env
	cfg   Config
	q     *sim.Queue[*Command]
	seq   uint64
	stats Stats

	// peerIdle is the event-index state: true while the host executor has
	// published that it is idle-waiting on the ring (the next dispatch must
	// kick), false while it is still processing (a kick may be elided under
	// batching). Starts true: until the executor's first Recv, the guest
	// must assume it is asleep.
	peerIdle bool
	// win is the ring's adaptive coalescing window, fed by observed
	// dispatch->completion round trips. Nil when batching is off.
	win *AdaptiveWindow

	tr       *obs.Tracer
	tk       obs.Track
	cmdCtr   *obs.Counter
	kickCtr  *obs.Counter
	elideCtr *obs.Counter
	pf       *prof.Profiler
}

// NewRing returns a ring with unbounded descriptor capacity (flow control
// is layered above, see internal/flowcontrol).
func NewRing(env *sim.Env, name string, cfg Config) *Ring {
	r := &Ring{Name: name, env: env, cfg: cfg, q: sim.NewQueue[*Command](env, 0), peerIdle: true}
	if r.tr = env.Tracer(); r.tr != nil {
		r.tk = r.tr.Track("vq:" + name)
	}
	if reg := env.Metrics(); reg != nil {
		r.cmdCtr = reg.Counter("vq." + name + ".commands")
		r.kickCtr = reg.Counter("vq." + name + ".kicks")
	}
	r.pf = env.Profiler()
	if cfg.Batch.Enabled {
		r.win = NewAdaptiveWindow(cfg.Batch)
		// Registered only when batching is on: the metrics dump prints
		// every registered counter, and batching off must stay
		// byte-identical to the pre-batching transport.
		if reg := env.Metrics(); reg != nil {
			r.elideCtr = reg.Counter("vq." + name + ".elided_kicks")
		}
	}
	return r
}

// NewCommand builds a command bound to this ring's sequence space.
func (r *Ring) NewCommand(kind string, payload any) *Command {
	r.seq++
	return &Command{Kind: kind, Payload: payload, Seq: r.seq, Done: sim.NewEvent(r.env)}
}

// Dispatch publishes one command and kicks the host. The calling guest
// process pays marshaling plus one VM-exit.
func (r *Ring) Dispatch(p *sim.Proc, c *Command) {
	r.DispatchBatch(p, []*Command{c})
}

// DispatchBatch publishes several commands with a single kick — the
// batching that command queues exist for (§3.4). Under an enabled batch
// config the kick itself is elided while the host executor is still
// processing: like virtio's event-index suppression, the executor re-checks
// the ring after publishing its idle state, so a command published to a busy
// ring is always picked up without a doorbell.
func (r *Ring) DispatchBatch(p *sim.Proc, cmds []*Command) {
	if len(cmds) == 0 {
		return
	}
	kick := !r.cfg.Batch.Enabled || r.peerIdle
	var sp obs.Span
	if r.tr != nil {
		sp = r.tr.Begin(r.tk, "dispatch")
	}
	cost := time.Duration(len(cmds)) * r.cfg.PerCommandCost
	if kick {
		cost += r.cfg.KickCost
	}
	dispatchStart := p.Now()
	p.Sleep(r.cfg.Scaled(cost))
	if r.pf != nil {
		lbl := "virtio:marshal"
		if kick {
			lbl = "virtio:kick"
		}
		r.pf.Charge(p, lbl, dispatchStart)
	}
	for _, c := range cmds {
		c.EnqueuedAt = p.Now()
		r.stats.Commands++
		if r.tr != nil {
			// Queue-residency leg: ends when the host executor receives
			// the command in Recv.
			r.tr.AsyncBegin(r.tk, "queued", c.Seq)
		}
		r.q.Put(p, c)
	}
	if kick {
		r.stats.Kicks++
	} else {
		r.stats.ElidedKicks++
	}
	if r.tr != nil {
		r.tr.End(r.tk, sp)
		if kick {
			r.tr.Instant(r.tk, "kick")
		} else {
			r.tr.Instant(r.tk, "kick-elided")
		}
		r.tr.Count(r.tk, "pending", float64(r.q.Len()))
	}
	r.cmdCtr.Add(int64(len(cmds)))
	if kick {
		r.kickCtr.Inc()
	} else {
		r.elideCtr.Inc()
	}
}

// Recv blocks the host device process until a command arrives. An executor
// finding the ring empty publishes its idle state first (the event-index
// write), so the dispatch that wakes it pays the kick.
func (r *Ring) Recv(p *sim.Proc) *Command {
	if r.q.Len() == 0 {
		r.peerIdle = true
	}
	c := r.q.Get(p)
	r.peerIdle = false
	if r.tr != nil {
		r.tr.AsyncEnd(r.tk, "queued", c.Seq)
		r.tr.Count(r.tk, "pending", float64(r.q.Len()))
	}
	return c
}

// ObserveRoundTrip feeds one dispatch->completion round trip into the
// ring's adaptive window. No-op when batching is off.
func (r *Ring) ObserveRoundTrip(d time.Duration) {
	if r.win != nil {
		r.win.ObserveRTT(d)
	}
}

// Pending returns the queued command count.
func (r *Ring) Pending() int { return r.q.Len() }

// Stats returns transport counters.
func (r *Ring) Stats() Stats { return r.stats }

// IRQLine models host-to-guest interrupt delivery. Each delivered interrupt
// costs the receiving guest process IRQCost, the "extra VM-Exits from
// interrupts" that make the event-driven ordering paradigm expensive (§3.4).
type IRQLine struct {
	Name string
	env  *sim.Env
	cfg  Config
	q    *sim.Queue[any]
	// delivered counts IRQCost charges on the guest (one per Wait, one per
	// WaitBatch drain); coalesced counts payloads that rode an interrupt
	// already pending (event-index suppression on the used ring). Both
	// equal the naive accounting when batching is off.
	delivered int
	coalesced int

	tr       *obs.Tracer
	tk       obs.Track
	raiseCtr *obs.Counter
	coalCtr  *obs.Counter
	pf       *prof.Profiler
}

// NewIRQLine returns an interrupt line.
func NewIRQLine(env *sim.Env, name string, cfg Config) *IRQLine {
	l := &IRQLine{Name: name, env: env, cfg: cfg, q: sim.NewQueue[any](env, 0), pf: env.Profiler()}
	if l.tr = env.Tracer(); l.tr != nil {
		l.tk = l.tr.Track("irq:" + name)
	}
	l.raiseCtr = env.Metrics().Counter("irq." + name + ".raised")
	if cfg.Batch.Enabled {
		// Only registered when batching is on (metrics-dump byte-identity).
		l.coalCtr = env.Metrics().Counter("irq." + name + ".coalesced")
	}
	return l
}

// Raise injects an interrupt carrying v. Host side; costless for the
// raiser beyond scheduling. Under batching, a payload raised while the
// guest has not drained the previous one rides the pending interrupt
// instead of injecting another.
func (l *IRQLine) Raise(v any) {
	if l.cfg.Batch.Enabled && l.q.Len() > 0 {
		l.coalesced++
		if l.tr != nil {
			l.tr.Instant(l.tk, "raise-coalesced")
		}
		l.coalCtr.Inc()
		l.q.TryPut(v)
		return
	}
	if l.tr != nil {
		l.tr.Instant(l.tk, "raise")
	}
	l.raiseCtr.Inc()
	l.q.TryPut(v)
}

// Wait blocks the guest process until an interrupt arrives, then pays the
// guest-side handling cost.
func (l *IRQLine) Wait(p *sim.Proc) any {
	v := l.q.Get(p)
	l.delivered++
	var sp obs.Span
	if l.tr != nil {
		sp = l.tr.Begin(l.tk, "irq-handle")
	}
	handleStart := p.Now()
	p.Sleep(l.cfg.Scaled(l.cfg.IRQCost))
	if l.pf != nil {
		l.pf.Charge(p, "virtio:irq", handleStart)
	}
	if l.tr != nil {
		l.tr.End(l.tk, sp)
	}
	return v
}

// WaitBatch blocks until an interrupt arrives, pays the guest-side handling
// cost once, and drains every payload that interrupt carries — the guest
// half of IRQ coalescing. With batching off it degenerates to Wait.
func (l *IRQLine) WaitBatch(p *sim.Proc) []any {
	out := []any{l.q.Get(p)}
	for {
		v, ok := l.q.TryGet()
		if !ok {
			break
		}
		out = append(out, v)
	}
	l.delivered++
	var sp obs.Span
	if l.tr != nil {
		sp = l.tr.Begin(l.tk, "irq-handle")
	}
	handleStart := p.Now()
	p.Sleep(l.cfg.Scaled(l.cfg.IRQCost))
	if l.pf != nil {
		l.pf.Charge(p, "virtio:irq", handleStart)
	}
	if l.tr != nil {
		l.tr.End(l.tk, sp)
	}
	return out
}

// Delivered returns the number of interrupts the guest paid IRQCost for.
func (l *IRQLine) Delivered() int { return l.delivered }

// Coalesced returns the number of payloads that rode a pending interrupt.
func (l *IRQLine) Coalesced() int { return l.coalesced }

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
