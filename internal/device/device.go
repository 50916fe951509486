// Package device implements vSoC's paravirtualized virtual device framework
// (§3.1, §3.4): each virtual device is a guest kernel driver plus a host
// module with its own command queue and executor thread. Guest drivers
// dispatch commands over virtio rings; host executors run them in order,
// touching SVM regions through the manager and occupying the physical device
// they are currently mapped to.
//
// The framework supports the two access-ordering paradigms the emulator
// presets use (Fig. 9): virtual command fences (vSoC) and atomic
// guest-blocking operations (the common baseline). An atomic op pays a
// guest-host round trip per constituent command, which the ring counts as
// a kick and an interrupt (virtio.Ring.RoundTrips). The paper's third
// paradigm, event-driven interrupt completion, is not modelled: no preset
// runs it.
//
// Guest drivers, host executors and rings are all processes on the
// deterministic simulation kernel: exactly one runs at any instant, so
// equal seeds replay identical command streams and fence timelines.
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
)

var modeNames = map[OrderingMode]string{
	ModeFence:  "fence",
	ModeAtomic: "atomic",
}

func (m OrderingMode) String() string { return modeNames[m] }

// ctxSwitchSync is the stall when a virtual device takes over a physical
// device from another virtual device under synchronous ordering;
// ctxSwitchDeferred is the same under fences, which §3.4 applies to GPU
// context switches precisely to avoid driver stalls.
const (
	ctxSwitchSync     = 600 * time.Microsecond
	ctxSwitchDeferred = 60 * time.Microsecond
)

// Config parameterizes a virtual device.
type Config struct {
	// Mode selects the ordering paradigm. Fence mode also paces dispatch
	// with MIMD flow control; the other modes self-pace by blocking.
	Mode      OrderingMode
	Transport virtio.Config
	// WatchdogTimeout bounds how long the host executor waits on a wait
	// fence before giving up and proceeding (GPU-hang recovery): a stalled
	// signaling device then surfaces as a counted, diagnosable timeout
	// instead of a hung pipeline. Zero waits forever.
	WatchdogTimeout time.Duration
}

// DefaultConfig returns a vSoC-style device configuration.
func DefaultConfig() Config {
	return Config{Mode: ModeFence}
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
	// a different device (the Fig. 9 write-then-read case). The zero
	// Ticket orders nothing.
	After Ticket
	// OnComplete, when non-nil, runs in host context when the op finishes
	// (used by displays to timestamp presented frames).
	OnComplete func(at time.Duration)
}

// Ticket is a handle on one submitted op: its record plus the record's
// generation at submission. Records are recycled once the op retires, so a
// ticket whose generation has moved on reads as ready. The signal fence and
// profiler node are copied into the ticket because retiring the record
// clears both, and an op submitted later may still order behind this one.
type Ticket struct {
	rec   *opRecord
	gen   uint64
	fence fence.Fence // signal fence attached after the op (fence mode only)
	node  *prof.Node
}

// live returns the ticket's record while the op has not retired.
func (t Ticket) live() *opRecord {
	if t.rec != nil && t.rec.gen == t.gen {
		return t.rec
	}
	return nil
}

// Wait parks p until the op is ready.
func (t Ticket) Wait(p *sim.Proc) {
	if r := t.live(); r != nil {
		r.done.Wait(p)
	}
}

// ProfNode returns the op's critical-path profiler node (nil when
// profiling is off), so consumers waiting on this ticket can record the
// op as a wait-for dependency.
func (t Ticket) ProfNode() *prof.Node { return t.node }

// Stats counts per-device activity.
type Stats struct {
	Submitted  int
	Executed   int
	FenceWaits int
	AtomicOps  int
	// IRQs is always zero: the ring's interrupt line (IRQ) counts the
	// interrupts of atomic round trips. It stays because the benchmark
	// module reads it.
	IRQs int
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
	ring *virtio.Ring
	ftab *fence.Table
	mimd *flowcontrol.MIMD

	vid hypergraph.NodeID
	// Current physical mapping (dynamic, §3.2).
	pid    hypergraph.NodeID
	host   *hostsim.Device
	domain *hostsim.Domain

	stats Stats
	// free holds retired op records for reuse.
	free *opRecord

	tr *obs.Tracer
	tk obs.Track

	// Critical-path profiler plus labels precomputed at construction so
	// the enabled path builds no strings per op.
	pf      *prof.Profiler
	lblNode [3]string // node name per OpKind
	lblCtx  string
}

// opRecord is one op in flight: the ring command that carries it (whose
// payload points back at the record), its guest-visible completion event
// and its fences. The host retires the record at the end of its executor
// iteration, once nothing reads it, and the device reuses it.
type opRecord struct {
	gen  uint64
	cmd  virtio.Command
	done sim.Event // fires when the op is ready (Ticket.Wait)
	op   Op
	// wait is the predecessor's signal fence (fence mode), waitNode the
	// predecessor's profiler node, read at submission while it is known.
	wait     fence.Fence
	waitNode *prof.Node
	sig      fence.Fence
	node     *prof.Node // wait-for graph vertex (profiling only)
	next     *opRecord  // free-list link
}

// newRecord takes a retired record from the free list, or builds one.
func (d *Device) newRecord(env *sim.Env) *opRecord {
	r := d.free
	if r == nil {
		r = &opRecord{done: *sim.NewEvent(env)}
		r.cmd.Payload = r
		return r
	}
	d.free = r.next
	r.next = nil
	r.done.Reset()
	return r
}

// retire recycles r: its generation moves on, so every outstanding ticket
// reads ready, and what it referenced is released.
func (d *Device) retire(r *opRecord) {
	r.gen++
	r.op = Op{}
	r.wait, r.waitNode, r.sig, r.node = fence.Fence{}, nil, fence.Fence{}, nil
	r.next = d.free
	d.free = r
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
		ring:   virtio.NewRing(env, name+"-vq", cfg.Transport),
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
		reg.Count("dev."+name+".submitted", &d.stats.Submitted)
		reg.Count("dev."+name+".executed", &d.stats.Executed)
		reg.Count("dev."+name+".dropped_ops", &d.stats.DroppedOps)
		reg.Count("dev."+name+".fence_timeouts", &d.stats.FenceTimeouts)
	}
	if cfg.Mode == ModeFence {
		d.mimd = flowcontrol.New(env)
	}
	if d.pf = env.Profiler(); d.pf != nil {
		for _, k := range []OpKind{OpWrite, OpRead, OpExec} {
			d.lblNode[k] = name + ":" + opName(k)
		}
		d.lblCtx = "dev:" + name + ":ctx-switch"
	}
	env.Spawn(name+"-host", d.hostLoop)
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

// Ring returns the device's command ring (read-only use by experiments and
// the benchmark: kick counts).
func (d *Device) Ring() *virtio.Ring { return d.ring }

// IRQ returns the device's interrupt line (read-only use by the monitor and
// the benchmark: delivered interrupts, one per atomic round trip).
func (d *Device) IRQ() *virtio.IRQLine { return d.ring.IRQ() }

// Submit dispatches op from guest driver context p and returns its ticket.
// Blocking behaviour depends on the ordering mode:
//
//   - fence: never blocks on host execution; writes block only for the
//     prefetch compensation (adaptive synchronism, §3.3).
//   - atomic: blocks until the host finishes the op.
func (d *Device) Submit(p *sim.Proc, op Op) Ticket {
	d.stats.Submitted++
	rec := d.newRecord(p.Env())
	rec.op = op
	rec.cmd.Kind = opName(op.Kind)
	d.ring.Stamp(&rec.cmd)
	if d.pf != nil {
		// The node opens at submission; its base component "ring:queued"
		// absorbs the dispatch-to-pickup residency.
		rec.node = d.pf.NewNode(d.lblNode[op.Kind], "ring:queued")
	}
	t := Ticket{rec: rec, gen: rec.gen, node: rec.node}
	cmd := &rec.cmd

	extra := op.Commands - 1
	if extra < 0 {
		extra = 0
	}
	switch d.cfg.Mode {
	case ModeFence:
		if !op.After.fence.Signaled() {
			rec.wait, rec.waitNode = op.After.fence, op.After.node
		}
		rec.sig = d.ftab.Alloc()
		t.fence = rec.sig
		if d.mimd != nil {
			paceStart := p.Now()
			d.mimd.Acquire(p)
			if d.pf != nil {
				d.pf.Charge(p, "pacing", paceStart)
			}
		}
		// Batched commands share one kick; only marshaling scales.
		marshalStart := p.Now()
		p.Sleep(d.cfg.Transport.Scaled(time.Duration(extra) * virtio.PerCommandCost))
		if d.pf != nil {
			d.pf.Charge(p, "virtio:marshal", marshalStart)
		}
		d.ring.Dispatch(p, cmd)
		if op.Kind == OpWrite {
			if comp := d.mgr.PredictCompensation(op.Region, d.Accessor()); comp > 0 {
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
		d.ring.RoundTrips(p, extra)
		d.ring.Dispatch(p, cmd)
		// The executor retires the record before this process resumes,
		// so nothing past the wait may touch it: t carries what is left.
		waitStart := p.Now()
		t.Wait(p)
		if d.pf != nil {
			d.pf.Wait(p, "atomic:wait", waitStart, t.node)
		}
		d.stats.AtomicOps++
	}
	return t
}

func (d *Device) hostLoop(p *sim.Proc) {
	for {
		cmd := d.ring.Recv(p)
		rec := cmd.Payload.(*opRecord)
		if d.pf != nil {
			d.pf.Bind(p, rec.node)
		}
		if rec.wait != (fence.Fence{}) {
			d.stats.FenceWaits++
			var wsp obs.Span
			if d.tr != nil {
				wsp = d.tr.Begin(d.tk, "fence-wait")
			}
			fwStart := p.Now()
			if wd := d.cfg.WatchdogTimeout; wd > 0 {
				if !rec.wait.WaitTimeout(p, wd) {
					d.stats.FenceTimeouts++
					if d.tr != nil {
						d.tr.Instant(d.tk, "fence-timeout")
					}
				}
			} else {
				rec.wait.Wait(p)
			}
			if d.pf != nil {
				d.pf.Wait(p, "fence:wait", fwStart, rec.waitNode)
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
		d.execute(p, rec)
		if d.tr != nil {
			d.tr.End(d.tk, sp)
		}
		if d.pf != nil {
			d.pf.Finish(rec.node) // no-op when execute already finished it
			d.pf.Bind(p, nil)
		}
		rec.done.Signal()
		if rec.sig != (fence.Fence{}) {
			rec.sig.Signal()
		}
		if d.mimd != nil {
			d.mimd.Complete(d.ring.Pending())
		}
		d.stats.Executed++
		d.retire(rec)
	}
}

func (d *Device) execute(p *sim.Proc, rec *opRecord) {
	op := rec.op
	if d.host.SwitchUser(d.Name) {
		// Taking over the physical device from another virtual device.
		if d.tr != nil {
			d.tr.Instant(d.tk, "ctx-switch")
		}
		ctxStart := p.Now()
		if d.cfg.Mode == ModeFence {
			p.Sleep(ctxSwitchDeferred)
		} else {
			p.Sleep(ctxSwitchSync)
		}
		if d.pf != nil {
			d.pf.Charge(p, d.lblCtx, ctxStart)
		}
	}
	switch op.Kind {
	case OpWrite:
		d.accessExec(p, op, svm.UsageWrite)
	case OpRead:
		d.accessExec(p, op, svm.UsageRead)
	case OpExec:
		d.host.Exec(p, op.Exec)
	}
	if op.OnComplete != nil {
		if d.pf != nil {
			// Finish the node before the callback so a FrameDone fired
			// inside it sees a completed dependency, and publish it as
			// the completing op for the final frame wait segment.
			d.pf.Finish(rec.node)
			d.pf.SetCompleting(rec.node)
		}
		op.OnComplete(p.Now())
		if d.pf != nil {
			d.pf.SetCompleting(nil)
		}
	}
}

// accessExec runs an SVM-touching op. An access that races a guest Free —
// the region vanished before begin, or mid-access before the write could
// commit — is dropped rather than fatal: the device still burns its
// execution slot (the command stream already carried the work), the commit
// is skipped, and the drop is counted. Any other SVM error is a protocol
// bug and panics.
func (d *Device) accessExec(p *sim.Proc, op Op, usage svm.Usage) {
	a, err := d.mgr.BeginAccess(p, op.Region, d.Accessor(), usage, op.Bytes)
	if err != nil {
		if errors.Is(err, svm.ErrFreed) || errors.Is(err, svm.ErrUnknownRegion) {
			d.stats.DroppedOps++
			if d.tr != nil {
				d.tr.Instant(d.tk, "dropped-op")
			}
			d.host.Exec(p, op.Exec)
			return
		}
		panic(fmt.Sprintf("device %s: %s begin: %v", d.Name, opName(op.Kind), err))
	}
	d.host.Exec(p, op.Exec)
	if _, err := a.End(p); err != nil {
		if errors.Is(err, svm.ErrFreed) {
			d.stats.DroppedOps++
			if d.tr != nil {
				d.tr.Instant(d.tk, "dropped-op")
			}
			return
		}
		panic(fmt.Sprintf("device %s: %s end: %v", d.Name, opName(op.Kind), err))
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
