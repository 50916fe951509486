package faults

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/virtio"
)

// linkFault covers the two link classes: bandwidth collapse and DMA loss.
type linkFault struct {
	class    Class
	link     *hostsim.Link
	from, to *hostsim.Domain // the path, as the prefetch engine keys it
	factor   float64         // collapse: remaining bandwidth fraction
	prob     float64         // dma-loss: per-transfer loss probability
}

// LinkCollapse degrades the direct link from one domain to another to
// factor of its nominal bandwidth (factor 0.4 = a 60% collapse). While an
// engine is bound, opening the window seeds the path's max bandwidth with
// the nominal value and immediately reports the collapsed bandwidth, so
// prefetch suspends at fault onset even on a path congested from its very
// first observation.
func LinkCollapse(m *hostsim.Machine, from, to *hostsim.Domain, factor float64) Fault {
	return &linkFault{
		class:  ClassLinkCollapse,
		link:   mustLink(m, from, to),
		from:   from,
		to:     to,
		factor: factor,
	}
}

// DMALoss makes each DMA transfer on the direct link between the domains
// lost (and re-driven) with probability prob, decided by the injector's
// seeded RNG. Loss appears as extra service time, which organically lowers
// the bandwidth the coherence layer observes.
func DMALoss(m *hostsim.Machine, from, to *hostsim.Domain, prob float64) Fault {
	return &linkFault{
		class: ClassDMALoss,
		link:  mustLink(m, from, to),
		from:  from,
		to:    to,
		prob:  prob,
	}
}

func mustLink(m *hostsim.Machine, from, to *hostsim.Domain) *hostsim.Link {
	l := m.LinkBetween(from, to)
	if l == nil {
		panic("faults: no direct link " + from.Name + "->" + to.Name)
	}
	return l
}

func (f *linkFault) Class() Class { return f.class }
func (f *linkFault) Target() string {
	return f.link.Name + " (" + f.from.Name + "->" + f.to.Name + ")"
}

func (f *linkFault) inject(i *Injector, now time.Duration) {
	switch f.class {
	case ClassLinkCollapse:
		f.link.SetDegradation(f.factor)
		if i.engine != nil {
			i.engine.SeedPathMax(f.from, f.to, f.link.Bandwidth)
			i.engine.ObserveBandwidth(f.from, f.to, f.link.Bandwidth*f.factor, now)
		}
	case ClassDMALoss:
		f.link.SetDMALoss(f.prob, i.rng)
	}
}

func (f *linkFault) clear(i *Injector, now time.Duration) {
	switch f.class {
	case ClassLinkCollapse:
		f.link.SetDegradation(1)
	case ClassDMALoss:
		f.link.SetDMALoss(0, nil)
	}
}

// deviceFault covers stalls and context-switch storms on one physical
// device. A deviceFault value belongs to a single window; schedule a fresh
// value per occurrence.
type deviceFault struct {
	class   Class
	dev     *hostsim.Device
	release *sim.Event // stall: fires at window close
}

// DeviceStall hangs the device for the window: every execution unit is
// occupied, so queued work waits and fences signal late. With a device
// watchdog configured, downstream waiters surface the stall as counted
// fence timeouts; demand fetches stay correct because links are unaffected.
func DeviceStall(d *hostsim.Device) Fault {
	return &deviceFault{class: ClassDeviceStall, dev: d}
}

// SwitchStorm forces every operation on the device to pay a virtual-device
// context switch, modeling a pathological interleaving of its users (§3.4's
// GPU context-switch cost, at maximum rate).
func SwitchStorm(d *hostsim.Device) Fault {
	return &deviceFault{class: ClassSwitchStorm, dev: d}
}

func (f *deviceFault) Class() Class   { return f.class }
func (f *deviceFault) Target() string { return f.dev.Name }

func (f *deviceFault) inject(i *Injector, now time.Duration) {
	switch f.class {
	case ClassDeviceStall:
		f.release = sim.NewEvent(i.env)
		f.dev.Stall(f.release)
	case ClassSwitchStorm:
		f.dev.ForceSwitchStorm(true)
	}
}

func (f *deviceFault) clear(i *Injector, now time.Duration) {
	switch f.class {
	case ClassDeviceStall:
		f.release.Signal()
	case ClassSwitchStorm:
		f.dev.ForceSwitchStorm(false)
	}
}

// thermalFault forces a throttle excursion on a thermal model.
type thermalFault struct {
	th *hostsim.Thermal
}

// ThermalExcursion forces the thermal model into its throttled speed for
// the window, regardless of modeled temperature — a firmware-commanded
// thermal event rather than a load-driven one. Clearing returns control to
// the temperature model.
func ThermalExcursion(t *hostsim.Thermal) Fault { return &thermalFault{th: t} }

func (f *thermalFault) Class() Class                          { return ClassThermal }
func (f *thermalFault) Target() string                        { return "thermal" }
func (f *thermalFault) inject(i *Injector, now time.Duration) { f.th.ForceExcursion(true) }
func (f *thermalFault) clear(i *Injector, now time.Duration)  { f.th.ForceExcursion(false) }

// transportFault spikes virtio transport costs.
type transportFault struct {
	scale  *virtio.CostScale
	factor float64
}

// TransportSpike multiplies every virtio kick, IRQ, and per-command cost
// by factor for the window — a saturated hypervisor exit path. Fence-mode
// emulators amortize it over batches; atomic ordering pays it per command.
func TransportSpike(s *virtio.CostScale, factor float64) Fault {
	return &transportFault{scale: s, factor: factor}
}

func (f *transportFault) Class() Class                          { return ClassTransport }
func (f *transportFault) Target() string                        { return "virtio" }
func (f *transportFault) inject(i *Injector, now time.Duration) { f.scale.Set(f.factor) }
func (f *transportFault) clear(i *Injector, now time.Duration)  { f.scale.Set(1) }
