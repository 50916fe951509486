package hostsim

import (
	"time"

	"repro/internal/prof"
	"repro/internal/sim"
)

// DeviceKind classifies physical host devices.
type DeviceKind int

const (
	DevCPU DeviceKind = iota
	DevGPU
	DevCamera
	DevNIC
)

var deviceKindNames = map[DeviceKind]string{
	DevCPU:    "cpu",
	DevGPU:    "gpu",
	DevCamera: "camera",
	DevNIC:    "nic",
}

func (k DeviceKind) String() string { return deviceKindNames[k] }

// Device is a physical compute device: it executes work items that occupy
// one of its execution units for a duration, scaled by the device's current
// speed factor (thermal throttling slows the CPU on laptops, §5.3).
type Device struct {
	Name   string
	Kind   DeviceKind
	Local  *Domain // the memory domain holding this device's local data
	env    *sim.Env
	units  *sim.Semaphore
	speed  func() float64 // current speed factor in (0,1]
	thermo *Thermal       // non-nil when execution heats a thermal model

	// lastUser tracks which virtual device last executed here, so the
	// virtualization layer can charge context-switch stalls when several
	// virtual devices share one physical device (§3.4's GPU context
	// switches).
	lastUser string

	// storm forces every SwitchUser to report a context switch — the
	// fault layer's context-switch-storm model (a pathological scheduler
	// interleaving where no virtual device ever runs twice in a row).
	storm  bool
	stalls int

	// Critical-path profiler plus labels precomputed at construction.
	pf          *prof.Profiler
	lblQueue    string
	lblExec     string
	lblThrottle string
}

// NewDevice returns a device with the given number of parallel execution
// units whose local data lives in local.
func NewDevice(env *sim.Env, name string, kind DeviceKind, local *Domain, units int64) *Device {
	d := &Device{
		Name:  name,
		Kind:  kind,
		Local: local,
		env:   env,
		units: sim.NewSemaphore(env, units),
		speed: func() float64 { return 1 },
	}
	if d.pf = env.Profiler(); d.pf != nil {
		d.lblQueue = "dev:" + name + ":queue"
		d.lblExec = "dev:" + name + ":exec"
		d.lblThrottle = "dev:" + name + ":throttle"
	}
	return d
}

// Stall occupies every execution unit until release fires, modeling a hung
// device (GPU hang, firmware reset): already-running work finishes, queued
// work observes a fully busy device, and everything resumes when the fault
// clears. The occupation is FIFO-fair through the unit semaphore, so the
// stall is deterministic with respect to in-flight work.
func (d *Device) Stall(release *sim.Event) {
	d.stalls++
	n := d.units.Capacity()
	d.env.Spawn(d.Name+"-stall", func(p *sim.Proc) {
		d.units.Acquire(p, n)
		release.Wait(p)
		d.units.Release(n)
	})
}

// Stalls returns how many stall faults have been injected on this device.
func (d *Device) Stalls() int { return d.stalls }

// ForceSwitchStorm toggles the context-switch storm: while on, every
// SwitchUser call reports a switch, charging the per-switch stall to every
// operation regardless of the actual user sequence.
func (d *Device) ForceSwitchStorm(on bool) { d.storm = on }

// SetSpeedSource installs a dynamic speed factor (used by thermal models).
func (d *Device) SetSpeedSource(f func() float64) { d.speed = f }

// SetThermal attaches a thermal model heated by this device's execution.
func (d *Device) SetThermal(t *Thermal) {
	d.thermo = t
	d.SetSpeedSource(t.SpeedFactor)
}

// Exec runs a work item whose cost is the given duration at nominal speed,
// occupying one execution unit. The elapsed time stretches when the device
// is throttled. It returns total elapsed time including queueing.
func (d *Device) Exec(p *sim.Proc, cost time.Duration) time.Duration {
	start := p.Now()
	d.units.Acquire(p, 1)
	acq := p.Now()
	eff := time.Duration(float64(cost) / d.speed())
	p.Sleep(eff)
	if d.pf != nil {
		// Split the stretched execution into nominal-speed work and the
		// thermal-throttle stretch, so throttling is its own component.
		d.pf.ChargeSpan(p, d.lblQueue, start, acq)
		if eff > cost {
			d.pf.ChargeSpan(p, d.lblExec, acq, acq+cost)
			d.pf.ChargeSpan(p, d.lblThrottle, acq+cost, acq+eff)
		} else {
			d.pf.ChargeSpan(p, d.lblExec, acq, acq+eff)
		}
	}
	d.units.Release(1)
	if d.thermo != nil {
		d.thermo.AddWork(eff)
	}
	return p.Now() - start
}

// SwitchUser records that the named virtual device is about to execute and
// reports whether that is a context switch from a different user.
func (d *Device) SwitchUser(name string) bool {
	if d.lastUser == name && !d.storm {
		return false
	}
	d.lastUser = name
	return true
}

func (d *Device) String() string { return d.Name }
