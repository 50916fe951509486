package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/emulator"
	"repro/internal/fence"
	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/svm"
)

// microDriver times a fixed number of calls into one layer's public
// functions, outside any workload, so a per-layer speed-up shows up as ns
// and allocations per call. Drivers run in traced runs only.
type microDriver struct {
	name   string // layer (metric prefix)
	op     string // what one call is
	suffix string // variant, appended to the metric name
	calls  int
	// setup builds the driver's environment; run performs the calls and
	// closes the environment.
	setup func(calls int) (run func() error, err error)
}

var microDrivers = []microDriver{
	{name: "sim", op: "event", calls: 1_000_000, setup: simEvents},
	{name: "sim", op: "switch", calls: 200_000, setup: simSwitches},
	{name: "svm", op: "cycle", suffix: ".prefetch", calls: 20_000, setup: svmCycles(svm.KindPrefetch)},
	{name: "svm", op: "cycle", suffix: ".write-invalidate", calls: 20_000, setup: svmCycles(svm.KindWriteInvalidate)},
	{name: "hostsim", op: "transfer", calls: 200_000, setup: linkTransfers},
	{name: "fence", op: "cycle", calls: 200_000, setup: fenceCycles},
}

// metrics names the driver's ns-per-call and allocations-per-call metrics.
func (d microDriver) metrics() (ns, allocs string) {
	return d.name + ".ns_per_" + d.op + "_micro" + d.suffix,
		d.name + ".allocs_per_" + d.op + "_micro" + d.suffix
}

// runMicro runs every driver and returns its ns and allocations per call.
func runMicro() (map[string]float64, error) {
	m := make(map[string]float64)
	for _, d := range microDrivers {
		run, err := d.setup(d.calls)
		if err != nil {
			return nil, fmt.Errorf("%s.%s micro: %w", d.name, d.op, err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err = run()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("%s.%s micro: %w", d.name, d.op, err)
		}
		n := float64(d.calls)
		ns, allocs := d.metrics()
		m[ns] = float64(wall.Nanoseconds()) / n
		m[allocs] = float64(after.Mallocs-before.Mallocs) / n
	}
	return m, nil
}

// simEvents steps the scheduler with 256 self-rescheduling timers pending,
// the hot loop of every device model: one call is one After plus one Step.
func simEvents(calls int) (func() error, error) {
	env := sim.NewEnv(1)
	for i := 0; i < 256; i++ {
		d := time.Microsecond * time.Duration(1+i%97)
		var fn func()
		fn = func() { env.After(d, fn) }
		env.After(d, fn)
	}
	return func() error {
		defer env.Close()
		for i := 0; i < calls; i++ {
			env.Step()
		}
		return nil
	}, nil
}

// simSwitches parks and resumes one process: one call is one Proc.Sleep,
// a goroutine handoff to the scheduler and back.
func simSwitches(calls int) (func() error, error) {
	env := sim.NewEnv(1)
	env.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	return func() error {
		defer env.Close()
		env.Run()
		return nil
	}, nil
}

// svmCycles drives write->read cycles of a UHD-sized region from the codec
// (host DRAM) to the GPU (VRAM) under one coherence protocol: one call is a
// BeginAccess/End write, the slack interval, and a BeginAccess/End read.
func svmCycles(kind svm.Kind) func(int) (func() error, error) {
	return func(calls int) (func() error, error) {
		env := sim.NewEnv(1)
		mach := hostsim.HighEndDesktop(env)
		cfg := svm.DefaultConfig()
		cfg.Kind = kind
		m := svm.NewManager(env, mach, cfg)
		m.RegisterVirtualDevice(emulator.VCodec, "vcodec")
		m.RegisterVirtualDevice(emulator.VGPU, "vgpu")
		m.RegisterPhysicalDevice(emulator.PNVDEC, "nvdec", mach.DRAM)
		m.RegisterPhysicalDevice(emulator.PGPU, "gpu", mach.VRAM)
		codec := svm.Accessor{Virtual: emulator.VCodec, Physical: emulator.PNVDEC, Domain: mach.DRAM, Name: "codec"}
		gpu := svm.Accessor{Virtual: emulator.VGPU, Physical: emulator.PGPU, Domain: mach.VRAM, Name: "gpu"}
		r, err := m.Alloc(16 * hostsim.MiB)
		if err != nil {
			env.Close()
			return nil, err
		}
		var cycleErr error
		env.Spawn("pipeline", func(p *sim.Proc) {
			for i := 0; i < calls && cycleErr == nil; i++ {
				cycleErr = svmCycle(p, m, r.ID, codec, gpu)
			}
		})
		return func() error {
			defer env.Close()
			env.Run()
			return cycleErr
		}, nil
	}
}

func svmCycle(p *sim.Proc, m *svm.Manager, id svm.RegionID, writer, reader svm.Accessor) error {
	w, err := m.BeginAccess(p, id, writer, svm.UsageWrite, 0)
	if err != nil {
		return err
	}
	info, err := w.End(p)
	if err != nil {
		return err
	}
	p.Sleep(info.Compensation + 16*time.Millisecond)
	rd, err := m.BeginAccess(p, id, reader, svm.UsageRead, 0)
	if err != nil {
		return err
	}
	_, err = rd.End(p)
	return err
}

// linkTransfers moves 1 MiB host-to-GPU DMA transfers back to back: one
// call is one Link.Transfer.
func linkTransfers(calls int) (func() error, error) {
	env := sim.NewEnv(1)
	mach := hostsim.HighEndDesktop(env)
	l := mach.LinkBetween(mach.DRAM, mach.VRAM)
	env.Spawn("dma", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			l.Transfer(p, hostsim.MiB)
		}
	})
	return func() error {
		defer env.Close()
		env.Run()
		return nil
	}, nil
}

// fenceCycles allocates a fence, has the scheduler signal it a microsecond
// later, and waits on it: one call is one Alloc, Signal and Wait.
func fenceCycles(calls int) (func() error, error) {
	env := sim.NewEnv(1)
	t := fence.NewTable(env)
	env.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			f := t.Alloc()
			env.After(time.Microsecond, f.Signal)
			f.Wait(p)
		}
	})
	return func() error {
		defer env.Close()
		env.Run()
		return nil
	}, nil
}
