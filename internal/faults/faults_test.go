package faults

import (
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/virtio"
)

const ms = time.Millisecond

// harness: a high-end machine with the DRAM->VRAM DMA link the video
// pipeline rides on.
type rig struct {
	env  *sim.Env
	mach *hostsim.Machine
	link *hostsim.Link
}

func newRig(t *testing.T) *rig {
	t.Helper()
	env := sim.NewEnv(11)
	mach := hostsim.HighEndDesktop(env)
	t.Cleanup(env.Close)
	return &rig{env: env, mach: mach, link: mach.LinkBetween(mach.DRAM, mach.VRAM)}
}

func TestScheduleValidation(t *testing.T) {
	rg := newRig(t)
	inj := NewInjector(rg.env, 1)

	for _, bad := range []struct{ at, dur time.Duration }{
		{-ms, ms}, {0, 0}, {ms, -ms},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule(%v, %v) did not panic", bad.at, bad.dur)
				}
			}()
			inj.Schedule(bad.at, bad.dur, SwitchStorm(rg.mach.GPU))
		}()
	}

	inj.Schedule(ms, ms, SwitchStorm(rg.mach.GPU))
	inj.Arm()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule after Arm did not panic")
			}
		}()
		inj.Schedule(5*ms, ms, SwitchStorm(rg.mach.GPU))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Arm did not panic")
			}
		}()
		inj.Arm()
	}()
}

func TestLinkCollapseDegradesAndRestores(t *testing.T) {
	rg := newRig(t)
	inj := NewInjector(rg.env, 1)
	inj.Schedule(10*ms, 20*ms, LinkCollapse(rg.mach, rg.mach.DRAM, rg.mach.VRAM, 0.4))
	inj.Arm()

	nominal := rg.link.TransferTime(64 * hostsim.MiB)
	// The window opens at 10ms and clears at 30ms, exactly.
	for at, open := range map[time.Duration]bool{9 * ms: false, 11 * ms: true, 29 * ms: true, 31 * ms: false} {
		rg.env.After(at, func() {
			if got := rg.link.TransferTime(64*hostsim.MiB) != nominal; got != open {
				t.Errorf("at %v: link degraded = %v, want %v", at, got, open)
			}
		})
	}
	rg.env.After(20*ms, func() {
		if got := rg.link.TransferTime(64 * hostsim.MiB); got <= nominal*2 {
			t.Errorf("collapsed transfer %v not ~2.5x nominal %v", got, nominal)
		}
	})
	rg.env.RunUntil(100 * ms)

	if got := rg.link.TransferTime(64 * hostsim.MiB); got != nominal {
		t.Fatalf("transfer time after window = %v, want nominal %v", got, nominal)
	}
}

func TestLinkCollapseSuspendsBoundEngine(t *testing.T) {
	rg := newRig(t)

	tw := hypergraph.NewTwin()
	eng := prefetch.New(tw, prefetch.DefaultConfig())
	inj := NewInjector(rg.env, 1)
	inj.BindEngine(eng)
	inj.Schedule(10*ms, 20*ms, LinkCollapse(rg.mach, rg.mach.DRAM, rg.mach.VRAM, 0.4))
	inj.Arm()
	rg.env.RunUntil(15 * ms)

	// The injector seeds the path max with nominal bandwidth and reports
	// the collapsed value, so suspension triggers at fault onset even
	// though the engine has never observed this path before.
	if !eng.Suspended(rg.env.Now()) {
		t.Fatal("bound engine not suspended at fault onset")
	}
	if eng.Suspensions() < 1 {
		t.Fatalf("Suspensions = %d, want >= 1", eng.Suspensions())
	}
}

func TestDMALossRetriesTransfers(t *testing.T) {
	rg := newRig(t)
	inj := NewInjector(rg.env, 1)
	inj.Schedule(0, 50*ms, DMALoss(rg.mach, rg.mach.DRAM, rg.mach.VRAM, 0.5))
	inj.Arm()

	var lossy, clean time.Duration
	rg.env.Spawn("dma", func(p *sim.Proc) {
		p.Sleep(ms)
		for i := 0; i < 20; i++ {
			lossy += rg.link.Transfer(p, hostsim.MiB)
		}
	})
	rg.env.RunUntil(60 * ms) // past window close
	retries := rg.link.DMARetries()
	if retries == 0 {
		t.Fatal("50% DMA loss over 20 transfers produced no retries")
	}

	rg.env.Spawn("dma-clean", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			clean += rg.link.Transfer(p, hostsim.MiB)
		}
	})
	rg.env.RunUntil(time.Second)
	if got := rg.link.DMARetries(); got != retries {
		t.Fatalf("retries after window = %d, want unchanged %d", got, retries)
	}
	if lossy <= clean {
		t.Fatalf("lossy window total %v not slower than clean %v", lossy, clean)
	}
}

func TestDeviceStallBlocksExecUntilClear(t *testing.T) {
	rg := newRig(t)
	inj := NewInjector(rg.env, 1)
	inj.Schedule(5*ms, 20*ms, DeviceStall(rg.mach.GPU))
	inj.Arm()

	var done time.Duration
	rg.env.Spawn("work", func(p *sim.Proc) {
		p.Sleep(10 * ms) // inside the stall window
		rg.mach.GPU.Exec(p, ms)
		done = p.Now()
	})
	rg.env.RunUntil(time.Second)

	if done < 25*ms {
		t.Fatalf("exec finished at %v, want >= 25ms (blocked until window close)", done)
	}
	if rg.mach.GPU.Stalls() != 1 {
		t.Fatalf("Stalls = %d, want 1", rg.mach.GPU.Stalls())
	}
}

func TestSwitchStormForcesContextSwitches(t *testing.T) {
	rg := newRig(t)
	inj := NewInjector(rg.env, 1)
	inj.Schedule(0, 10*ms, SwitchStorm(rg.mach.GPU))
	inj.Arm()

	rg.env.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(ms)
		rg.mach.GPU.SwitchUser("gpu")
		if !rg.mach.GPU.SwitchUser("gpu") {
			t.Error("same-user reuse must still context-switch during a storm")
		}
		p.Sleep(20 * ms) // past window close
		if rg.mach.GPU.SwitchUser("gpu") {
			t.Error("same-user reuse switched after the storm cleared")
		}
	})
	rg.env.RunUntil(time.Second)
}

func TestThermalExcursionThrottlesForWindowOnly(t *testing.T) {
	rg := newRig(t)
	th := hostsim.NewThermal(rg.env, 100*ms)
	th.ThrottledSpeed = 0.4
	inj := NewInjector(rg.env, 1)
	inj.Schedule(10*ms, 20*ms, ThermalExcursion(th))
	inj.Arm()

	rg.env.After(5*ms, func() {
		if th.Throttled() {
			t.Error("throttled before the window")
		}
	})
	rg.env.After(20*ms, func() {
		if !th.Throttled() || th.SpeedFactor() != 0.4 {
			t.Errorf("in-window: throttled=%v speed=%v, want true/0.4",
				th.Throttled(), th.SpeedFactor())
		}
	})
	rg.env.RunUntil(time.Second)
	if th.Throttled() {
		t.Fatal("still throttled after the window (model not back in control)")
	}
}

func TestTransportSpikeScalesCostsForWindowOnly(t *testing.T) {
	rg := newRig(t)
	scale := virtio.NewCostScale()
	inj := NewInjector(rg.env, 1)
	inj.Schedule(10*ms, 20*ms, TransportSpike(scale, 8))
	inj.Arm()

	rg.env.After(20*ms, func() {
		if got := scale.Factor(); got != 8 {
			t.Errorf("in-window factor = %v, want 8", got)
		}
	})
	rg.env.RunUntil(time.Second)
	if got := scale.Factor(); got != 1 {
		t.Fatalf("factor after window = %v, want 1", got)
	}
}

func TestDeterminismAcrossIdenticalRuns(t *testing.T) {
	run := func() (int, time.Duration) {
		env := sim.NewEnv(11)
		defer env.Close()
		mach := hostsim.HighEndDesktop(env)
		link := mach.LinkBetween(mach.DRAM, mach.VRAM)
		inj := NewInjector(env, 42)
		inj.Schedule(5*ms, 30*ms, DMALoss(mach, mach.DRAM, mach.VRAM, 0.4))
		inj.Schedule(10*ms, 10*ms, LinkCollapse(mach, mach.DRAM, mach.VRAM, 0.5))
		inj.Arm()
		var total time.Duration
		env.Spawn("dma", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				total += link.Transfer(p, hostsim.MiB)
				p.Sleep(ms)
			}
		})
		env.RunUntil(time.Second)
		return link.DMARetries(), total
	}

	r1, t1 := run()
	r2, t2 := run()
	if r1 != r2 || t1 != t2 {
		t.Fatalf("run divergence: retries %d/%d, total %v/%v", r1, r2, t1, t2)
	}
}

// Demand fetch must stay correct while a link fault is active: a reader on
// the far side of a collapsed (and lossy) link still observes the current
// version — just slower.
func TestDemandFetchCorrectUnderLinkFaults(t *testing.T) {
	env := sim.NewEnv(11)
	defer env.Close()
	mach := hostsim.HighEndDesktop(env)
	cfg := svm.DefaultConfig()
	cfg.Kind = svm.KindWriteInvalidate // pure demand-fetch protocol
	mgr := svm.NewManager(env, mach, cfg)
	mgr.RegisterVirtualDevice(0, "vcodec")
	mgr.RegisterVirtualDevice(1, "vgpu")
	mgr.RegisterPhysicalDevice(10, "codec", mach.DRAM)
	mgr.RegisterPhysicalDevice(11, "gpu", mach.VRAM)
	codec := svm.Accessor{Virtual: 0, Physical: 10, Domain: mach.DRAM, Name: "codec"}
	gpu := svm.Accessor{Virtual: 1, Physical: 11, Domain: mach.VRAM, Name: "gpu"}

	inj := NewInjector(env, 7)
	inj.Schedule(0, time.Second, LinkCollapse(mach, mach.DRAM, mach.VRAM, 0.3))
	inj.Schedule(0, time.Second, DMALoss(mach, mach.DRAM, mach.VRAM, 0.5))
	inj.Arm()

	reg, err := mgr.Alloc(8 * hostsim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("pipeline", func(p *sim.Proc) {
		p.Sleep(ms) // fault windows are open
		for i := 0; i < 5; i++ {
			w, err := mgr.BeginAccess(p, reg.ID, codec, svm.UsageWrite, 8*hostsim.MiB)
			if err != nil {
				t.Fatalf("write begin: %v", err)
			}
			if _, err := w.End(p); err != nil {
				t.Fatalf("write end: %v", err)
			}
			r, err := mgr.BeginAccess(p, reg.ID, gpu, svm.UsageRead, 8*hostsim.MiB)
			if err != nil {
				t.Fatalf("read begin: %v", err)
			}
			if !reg.HasCurrentCopy(mach.VRAM) {
				t.Fatalf("iteration %d: reader began without a current copy", i)
			}
			if _, err := r.End(p); err != nil {
				t.Fatalf("read end: %v", err)
			}
		}
	})
	env.RunUntil(10 * time.Second)
	if got := mgr.Stats().DemandFetches; got != 5 {
		t.Fatalf("DemandFetches = %d, want 5", got)
	}
}
