// Package device implements vSoC's paravirtualized virtual device framework
// (§3.1, §3.4): each virtual device is a guest kernel driver plus a host
// module with its own command queue and executor thread. Guest drivers
// dispatch commands over virtio rings; host executors run them in order,
// touching SVM regions through the manager and occupying the physical device
// they are currently mapped to.
//
// The framework supports the three access-ordering paradigms the paper
// compares (Fig. 9): virtual command fences (vSoC), atomic guest-blocking
// operations (the common baseline), and event-driven interrupt completion.
//
// Guest drivers, host executors, rings, and IRQ delivery are all processes
// on the deterministic simulation kernel: exactly one runs at any instant,
// so equal seeds replay identical command streams and fence timelines.
package device

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fence"
	"repro/internal/flowcontrol"
	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/virtio"
)

// OrderingMode selects how cross-device shared-resource ordering is
// enforced (§3.4).
type OrderingMode int

const (
	// ModeFence attaches virtual signal/wait fences to commands; guest
	// drivers never block on host execution.
	ModeFence OrderingMode = iota
	// ModeAtomic blocks the guest driver until the host finishes each
	// shared-resource operation (head-of-queue blocking).
	ModeAtomic
	// ModeEventDriven lets the guest proceed and signals completion with
	// an emulated interrupt (extra VM-exits).
	ModeEventDriven
)

var modeNames = map[OrderingMode]string{
	ModeFence:       "fence",
	ModeAtomic:      "atomic",
	ModeEventDriven: "event-driven",
}

func (m OrderingMode) String() string { return modeNames[m] }

// Config parameterizes a virtual device.
type Config struct {
	Mode        OrderingMode
	Transport   virtio.Config
	FlowControl flowcontrol.Config
	// UseFlowControl enables MIMD pacing (fence mode benefits; the other
	// modes self-pace by blocking).
	UseFlowControl bool
	// CtxSwitchSync is the stall when this virtual device takes over a
	// physical device from another virtual device under synchronous
	// ordering; CtxSwitchDeferred is the same under fences, which §3.4
	// applies to GPU context switches precisely to avoid driver stalls.
	CtxSwitchSync     time.Duration
	CtxSwitchDeferred time.Duration
	// WatchdogTimeout bounds how long the host executor waits on a wait
	// fence before giving up and proceeding (GPU-hang recovery): a stalled
	// signaling device then surfaces as a counted, diagnosable timeout
	// instead of a hung pipeline. Zero waits forever.
	WatchdogTimeout time.Duration
}

// DefaultConfig returns a vSoC-style device configuration.
func DefaultConfig() Config {
	return Config{
		Mode:              ModeFence,
		Transport:         virtio.DefaultConfig(),
		FlowControl:       flowcontrol.DefaultConfig(),
		UseFlowControl:    true,
		CtxSwitchSync:     600 * time.Microsecond,
		CtxSwitchDeferred: 60 * time.Microsecond,
	}
}

// OpKind classifies device commands.
type OpKind int

const (
	// OpWrite produces data into an SVM region (decode, capture, receive).
	OpWrite OpKind = iota
	// OpRead consumes data from an SVM region (render, encode, scan-out).
	OpRead
	// OpExec is pure device work with no SVM access (3D draw calls).
	OpExec
)

// Op is one device command from the guest's point of view.
type Op struct {
	Kind   OpKind
	Region svm.RegionID
	// Bytes is the accessed range (0 = whole region) for OpRead/OpWrite.
	Bytes hostsim.Bytes
	// Exec is the physical-device execution cost at nominal speed.
	Exec time.Duration
	// Commands is how many driver commands the op comprises (draw calls,
	// codec control writes). Fence mode batches them with one kick;
	// atomic mode pays a guest-host round trip per command — the
	// head-of-queue blocking cost of §3.4. Zero means one command.
	Commands int
	// After orders this op behind a previously submitted one, possibly on
	// a different device (the Fig. 9 write-then-read case).
	After *Ticket
	// OnComplete, when non-nil, runs in host context when the op finishes
	// (used by displays to timestamp presented frames).
	OnComplete func(at time.Duration)
}

// Ticket tracks one submitted op.
type Ticket struct {
	Cmd *virtio.Command
	// Fence is the signal fence attached after the op (fence mode only).
	Fence *fence.Fence
	// Ready fires when the guest may consider the op complete, with the
	// mode's notification cost already applied.
	Ready *sim.Event
}

// ProfNode returns the op's critical-path profiler node (nil when
// profiling is off), so consumers waiting on this ticket can record the
// op as a wait-for dependency.
func (t *Ticket) ProfNode() *prof.Node {
	if t == nil || t.Cmd == nil {
		return nil
	}
	if ho, ok := t.Cmd.Payload.(*hostOp); ok {
		return ho.node
	}
	return nil
}

// Stats counts per-device activity.
type Stats struct {
	Submitted  int
	Executed   int
	FenceWaits int
	AtomicOps  int
	IRQs       int
	// FenceTimeouts counts wait fences abandoned by the watchdog.
	FenceTimeouts int
	// DroppedOps counts ops whose SVM access raced a Free and was dropped
	// (the graceful-degradation path: execution continues, the commit is
	// skipped).
	DroppedOps int
}

// Device is one virtual device: guest driver state plus the host executor.
type Device struct {
	Name string

	mgr  *svm.Manager
	cfg  Config
	env  *sim.Env
	ring *virtio.Ring
	irq  *virtio.IRQLine
	ftab *fence.Table
	mimd *flowcontrol.MIMD

	vid hypergraph.NodeID
	// Current physical mapping (dynamic, §3.2).
	pid    hypergraph.NodeID
	host   *hostsim.Device
	domain *hostsim.Domain

	stats Stats
	// piggybacked counts fence signals deferred onto a push batch's
	// completion IRQ (notification batching; kept out of Stats so the
	// struct's printed form is unchanged with batching off).
	piggybacked int

	tr         *obs.Tracer
	tk         obs.Track
	subCtr     *obs.Counter
	execCtr    *obs.Counter
	dropCtr    *obs.Counter
	timeoutCtr *obs.Counter

	// Critical-path profiler plus labels precomputed at construction so
	// the enabled path builds no strings per op.
	pf      *prof.Profiler
	lblNode [3]string // node name per OpKind
	lblCtx  string
}

// hostOp is the payload carried in ring commands.
type hostOp struct {
	op         Op
	waitFence  *fence.Fence
	sigFence   *fence.Fence
	notify     bool       // raise an IRQ at completion (event-driven mode)
	readyEvent *sim.Event // guest-visible completion (event-driven mode)
	node       *prof.Node // wait-for graph vertex (profiling only)
}

// New creates a virtual device mapped to the given physical device/domain
// and starts its host executor. ftab is the emulator-wide virtual fence
// table (may be nil for non-fence modes).
func New(env *sim.Env, mgr *svm.Manager, name string, vid, pid hypergraph.NodeID,
	host *hostsim.Device, domain *hostsim.Domain, ftab *fence.Table, cfg Config) *Device {

	d := &Device{
		Name:   name,
		mgr:    mgr,
		cfg:    cfg,
		env:    env,
		ring:   virtio.NewRing(env, name+"-vq", cfg.Transport),
		irq:    virtio.NewIRQLine(env, name+"-irq", cfg.Transport),
		ftab:   ftab,
		vid:    vid,
		pid:    pid,
		host:   host,
		domain: domain,
	}
	if cfg.Mode == ModeFence && ftab == nil {
		panic(fmt.Sprintf("device %s: fence mode requires a fence table", name))
	}
	if d.tr = env.Tracer(); d.tr != nil {
		d.tk = d.tr.Track("dev:" + name)
	}
	if reg := env.Metrics(); reg != nil {
		d.subCtr = reg.Counter("dev." + name + ".submitted")
		d.execCtr = reg.Counter("dev." + name + ".executed")
		d.dropCtr = reg.Counter("dev." + name + ".dropped_ops")
		d.timeoutCtr = reg.Counter("dev." + name + ".fence_timeouts")
	}
	if cfg.UseFlowControl && cfg.Mode == ModeFence {
		d.mimd = flowcontrol.New(env, cfg.FlowControl)
	}
	if d.pf = env.Profiler(); d.pf != nil {
		for _, k := range []OpKind{OpWrite, OpRead, OpExec} {
			d.lblNode[k] = name + ":" + opName(k)
		}
		d.lblCtx = "dev:" + name + ":ctx-switch"
	}
	env.Spawn(name+"-host", d.hostLoop)
	if cfg.Mode == ModeEventDriven {
		env.Spawn(name+"-irq-dispatch", d.irqLoop)
	}
	return d
}

// Accessor returns the device's current SVM accessor identity.
func (d *Device) Accessor() svm.Accessor {
	return svm.Accessor{Virtual: d.vid, Physical: d.pid, Domain: d.domain, Name: d.Name}
}

// HostDevice returns the physical device currently backing this one.
func (d *Device) HostDevice() *hostsim.Device { return d.host }

// Stats returns the device's counters.
func (d *Device) Stats() Stats { return d.stats }

// PiggybackedFences returns how many fence signals rode a coherence push
// batch's completion IRQ instead of signaling on their own (always zero
// with notification batching off).
func (d *Device) PiggybackedFences() int { return d.piggybacked }

// Ring returns the device's command ring (read-only use by experiments and
// tests: suppression stats, adaptive-window state).
func (d *Device) Ring() *virtio.Ring { return d.ring }

// IRQ returns the device's interrupt line (read-only use by experiments
// and tests).
func (d *Device) IRQ() *virtio.IRQLine { return d.irq }

// batching reports whether the notification-batching layer is on.
func (d *Device) batching() bool { return d.cfg.Transport.Batch.Enabled }

// Submit dispatches op from guest driver context p and returns its ticket.
// Blocking behaviour depends on the ordering mode:
//
//   - fence: never blocks on host execution; writes block only for the
//     prefetch compensation (adaptive synchronism, §3.3).
//   - atomic: blocks until the host finishes the op.
//   - event-driven: returns immediately; Ready fires after the completion
//     interrupt is handled.
func (d *Device) Submit(p *sim.Proc, op Op) *Ticket {
	d.stats.Submitted++
	d.subCtr.Inc()
	t := &Ticket{}
	cmd := d.ring.NewCommand(opName(op.Kind), nil)
	t.Cmd = cmd
	t.Ready = cmd.Done

	ho := &hostOp{op: op}
	cmd.Payload = ho
	if d.pf != nil {
		// The node opens at submission; its base component "ring:queued"
		// absorbs the dispatch-to-pickup residency.
		ho.node = d.pf.NewNode(d.lblNode[op.Kind], "ring:queued")
	}

	extra := op.Commands - 1
	if extra < 0 {
		extra = 0
	}
	switch d.cfg.Mode {
	case ModeFence:
		if op.After != nil && op.After.Fence != nil && !op.After.Fence.Signaled() {
			ho.waitFence = op.After.Fence
		}
		ho.sigFence = d.ftab.Alloc()
		t.Fence = ho.sigFence
		if d.pf != nil {
			ho.sigFence.SetProvenance(ho.node)
		}
		if d.mimd != nil {
			paceStart := p.Now()
			d.mimd.Acquire(p)
			if d.pf != nil {
				d.pf.Charge(p, "pacing", paceStart)
			}
		}
		// Batched commands share one kick; only marshaling scales.
		marshalStart := p.Now()
		p.Sleep(d.cfg.Transport.Scaled(time.Duration(extra) * d.cfg.Transport.PerCommandCost))
		if d.pf != nil {
			d.pf.Charge(p, "virtio:marshal", marshalStart)
		}
		d.ring.Dispatch(p, cmd)
		if op.Kind == OpWrite {
			if comp := d.mgr.PredictCompensation(op.Region, d.Accessor(), op.Bytes); comp > 0 {
				compStart := p.Now()
				p.Sleep(comp)
				if d.pf != nil {
					d.pf.Charge(p, "svm:compensation", compStart)
				}
			}
		}
	case ModeAtomic:
		// Guest-side ordering: op.After already completed because its
		// submission blocked. Each constituent command costs a full
		// guest-host round trip before the final dispatch-and-wait.
		marshalStart := p.Now()
		p.Sleep(d.cfg.Transport.Scaled(time.Duration(extra) *
			(d.cfg.Transport.PerCommandCost + d.cfg.Transport.KickCost + d.cfg.Transport.IRQCost)))
		if d.pf != nil {
			d.pf.Charge(p, "virtio:marshal", marshalStart)
		}
		d.ring.Dispatch(p, cmd)
		waitStart := p.Now()
		cmd.Done.Wait(p)
		if d.pf != nil {
			d.pf.Wait(p, "atomic:wait", waitStart, ho.node)
		}
		d.stats.AtomicOps++
	case ModeEventDriven:
		ho.notify = true
		ready := sim.NewEvent(p.Env())
		t.Ready = ready
		ho.readyEvent = ready
		if op.After != nil && !op.After.Ready.Fired() {
			// The guest serializes dependent ops on the completion IRQ
			// of the predecessor.
			orderStart := p.Now()
			op.After.Ready.Wait(p)
			if d.pf != nil {
				d.pf.Wait(p, "irq:order-wait", orderStart, op.After.ProfNode())
			}
		}
		marshalStart := p.Now()
		p.Sleep(d.cfg.Transport.Scaled(time.Duration(extra) * (d.cfg.Transport.PerCommandCost + d.cfg.Transport.KickCost)))
		if d.pf != nil {
			d.pf.Charge(p, "virtio:marshal", marshalStart)
		}
		d.ring.Dispatch(p, cmd)
	}
	return t
}

func (d *Device) hostLoop(p *sim.Proc) {
	for {
		cmd := d.ring.Recv(p)
		ho := cmd.Payload.(*hostOp)
		if d.pf != nil {
			d.pf.Bind(p, ho.node)
		}
		if ho.waitFence != nil {
			d.stats.FenceWaits++
			var wsp obs.Span
			if d.tr != nil {
				wsp = d.tr.Begin(d.tk, "fence-wait")
			}
			fwStart := p.Now()
			if wd := d.cfg.WatchdogTimeout; wd > 0 {
				if !ho.waitFence.WaitTimeout(p, wd) {
					d.stats.FenceTimeouts++
					d.timeoutCtr.Inc()
					if d.tr != nil {
						d.tr.Instant(d.tk, "fence-timeout")
					}
				}
			} else {
				ho.waitFence.Wait(p)
			}
			if d.pf != nil {
				d.pf.Wait(p, "fence:wait", fwStart, ho.waitFence.Provenance())
			}
			if d.tr != nil {
				d.tr.End(d.tk, wsp)
			}
		}
		// The executor is one process, so op spans on a device track never
		// overlap and can be complete events.
		var sp obs.Span
		if d.tr != nil {
			sp = d.tr.Begin(d.tk, cmd.Kind)
		}
		info := d.execute(p, ho)
		if d.tr != nil {
			d.tr.End(d.tk, sp)
		}
		if d.pf != nil {
			d.pf.Finish(ho.node) // no-op when execute already finished it
			d.pf.Bind(p, nil)
		}
		if d.batching() {
			// Feed the ring's adaptive window with the dispatch->completion
			// round trip the coalescing windows are sized against.
			d.ring.ObserveRoundTrip(p.Now() - cmd.EnqueuedAt)
		}
		cmd.Done.Signal()
		if ho.sigFence != nil {
			if len(info.PushBatches) > 0 {
				// Fence piggybacking: the signal rides the push batch's
				// completion IRQ. Downstream waiters then start with the
				// pushed copy already in place. PushBatches is only ever
				// non-nil with batching on.
				d.piggybackFence(ho.sigFence, info.PushBatches)
			} else {
				ho.sigFence.Signal()
			}
		}
		if ho.notify {
			d.irq.Raise(ho)
		}
		if d.mimd != nil {
			d.mimd.Complete(d.ring.Pending())
		}
		d.stats.Executed++
		d.execCtr.Inc()
	}
}

func (d *Device) execute(p *sim.Proc, ho *hostOp) svm.EndInfo {
	op := ho.op
	if d.host.SwitchUser(d.Name) {
		// Taking over the physical device from another virtual device.
		if d.tr != nil {
			d.tr.Instant(d.tk, "ctx-switch")
		}
		ctxStart := p.Now()
		if d.cfg.Mode == ModeFence {
			p.Sleep(d.cfg.CtxSwitchDeferred)
		} else {
			p.Sleep(d.cfg.CtxSwitchSync)
		}
		if d.pf != nil {
			d.pf.Charge(p, d.lblCtx, ctxStart)
		}
	}
	var info svm.EndInfo
	switch op.Kind {
	case OpWrite:
		info = d.accessExec(p, op, svm.UsageWrite)
	case OpRead:
		info = d.accessExec(p, op, svm.UsageRead)
	case OpExec:
		d.host.Exec(p, op.Exec)
	}
	if op.OnComplete != nil {
		if d.pf != nil {
			// Finish the node before the callback so a FrameDone fired
			// inside it sees a completed dependency, and publish it as
			// the completing op for the final frame wait segment.
			d.pf.Finish(ho.node)
			d.pf.SetCompleting(ho.node)
		}
		op.OnComplete(p.Now())
		if d.pf != nil {
			d.pf.SetCompleting(nil)
		}
	}
	return info
}

// accessExec runs an SVM-touching op. An access that races a guest Free —
// the region vanished before begin, or mid-access before the write could
// commit — is dropped rather than fatal: the device still burns its
// execution slot (the command stream already carried the work), the commit
// is skipped, and the drop is counted. Any other SVM error is a protocol
// bug and panics.
func (d *Device) accessExec(p *sim.Proc, op Op, usage svm.Usage) svm.EndInfo {
	a, err := d.mgr.BeginAccess(p, op.Region, d.Accessor(), usage, op.Bytes)
	if err != nil {
		if errors.Is(err, svm.ErrFreed) || errors.Is(err, svm.ErrUnknownRegion) {
			d.stats.DroppedOps++
			d.dropCtr.Inc()
			if d.tr != nil {
				d.tr.Instant(d.tk, "dropped-op")
			}
			d.host.Exec(p, op.Exec)
			return svm.EndInfo{}
		}
		panic(fmt.Sprintf("device %s: %s begin: %v", d.Name, opName(op.Kind), err))
	}
	d.host.Exec(p, op.Exec)
	info, err := a.End(p)
	if err != nil {
		if errors.Is(err, svm.ErrFreed) {
			d.stats.DroppedOps++
			d.dropCtr.Inc()
			if d.tr != nil {
				d.tr.Instant(d.tk, "dropped-op")
			}
			return svm.EndInfo{}
		}
		panic(fmt.Sprintf("device %s: %s end: %v", d.Name, opName(op.Kind), err))
	}
	return info
}

// piggybackFence defers f's signal onto the completion of the write's push
// batches: the last batch to finish signals the fence from its completion
// context, so the fence needs no notification of its own.
func (d *Device) piggybackFence(f *fence.Fence, batches []*svm.PushBatch) {
	d.piggybacked++
	if d.tr != nil {
		d.tr.Instant(d.tk, "fence-piggyback")
	}
	remaining := len(batches)
	for _, b := range batches {
		b.OnComplete(func() {
			remaining--
			if remaining == 0 {
				f.Signal()
			}
		})
	}
}

// irqLoop delivers completion interrupts to the guest (event-driven mode),
// charging the IRQ handling cost before marking tickets ready. With
// batching on, one handled interrupt drains every coalesced completion.
func (d *Device) irqLoop(p *sim.Proc) {
	batched := d.batching()
	for {
		if !batched {
			d.deliverIRQ(d.irq.Wait(p))
			continue
		}
		for _, v := range d.irq.WaitBatch(p) {
			d.deliverIRQ(v)
		}
	}
}

func (d *Device) deliverIRQ(v any) {
	d.stats.IRQs++
	ho := v.(*hostOp)
	if ho.readyEvent != nil {
		ho.readyEvent.Signal()
	}
}

func opName(k OpKind) string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return "exec"
	}
}
