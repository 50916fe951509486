package device

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fence"
	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/virtio"
)

const ms = time.Millisecond

const (
	vCodec hypergraph.NodeID = iota
	vGPU
)
const (
	pCodecHW hypergraph.NodeID = iota
	pGPU
	pCPU
)

type rig struct {
	env   *sim.Env
	mach  *hostsim.Machine
	mgr   *svm.Manager
	ftab  *fence.Table
	codec *Device
	gpu   *Device
}

func newRig(t testing.TB, mode OrderingMode) *rig {
	return newRigSeeded(t, mode, 3)
}

func newRigSeeded(t testing.TB, mode OrderingMode, seed int64) *rig {
	cfg := DefaultConfig()
	cfg.Mode = mode
	return newRigCfg(t, cfg, seed)
}

func newRigCfg(t testing.TB, cfg Config, seed int64) *rig {
	return newRigEnv(t, sim.NewEnv(seed), cfg, svm.DefaultConfig())
}

// newRigEnv builds the rig on env, whose profiler, if any, must already
// be attached.
func newRigEnv(t testing.TB, env *sim.Env, cfg Config, scfg svm.Config) *rig {
	t.Helper()
	mach := hostsim.HighEndDesktop(env)
	mgr := svm.NewManager(env, mach, scfg)
	mgr.RegisterVirtualDevice(vCodec, "vcodec")
	mgr.RegisterVirtualDevice(vGPU, "vgpu")
	mgr.RegisterPhysicalDevice(pCodecHW, "codec-hw", mach.DRAM)
	mgr.RegisterPhysicalDevice(pGPU, "gpu", mach.VRAM)
	mgr.RegisterPhysicalDevice(pCPU, "cpu", mach.DRAM)

	ftab := fence.NewTable(env)
	rg := &rig{
		env:   env,
		mach:  mach,
		mgr:   mgr,
		ftab:  ftab,
		codec: New(env, mgr, "codec", vCodec, pCodecHW, mach.CPU, mach.DRAM, ftab, cfg),
		gpu:   New(env, mgr, "gpu", vGPU, pGPU, mach.GPU, mach.VRAM, ftab, cfg),
	}
	t.Cleanup(env.Close)
	return rg
}

func TestFenceModeDriverDoesNotBlock(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(16 * hostsim.MiB)
	var submitTook time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 10 * ms})
		submitTook = p.Now() - start
	})
	rg.env.RunUntil(time.Second)
	if submitTook > ms {
		t.Fatalf("fence-mode submit blocked %v, want << 10ms host exec", submitTook)
	}
	if rg.codec.Stats().Executed != 1 {
		t.Fatalf("Executed = %d, want 1", rg.codec.Stats().Executed)
	}
}

func TestAtomicModeDriverBlocksForHostExec(t *testing.T) {
	rg := newRig(t, ModeAtomic)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var submitTook time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 10 * ms})
		submitTook = p.Now() - start
	})
	rg.env.RunUntil(time.Second)
	if submitTook < 10*ms {
		t.Fatalf("atomic submit took %v, want >= 10ms", submitTook)
	}
	if rg.codec.Stats().AtomicOps != 1 {
		t.Fatalf("AtomicOps = %d, want 1", rg.codec.Stats().AtomicOps)
	}
}

// TestAtomicRoundTripsCountKicksAndIRQs: an atomic op of n commands pays
// one guest-host round trip (marshal, kick, interrupt) per command before
// its final dispatch, and the ring counts each: n kicks and n-1
// interrupts, the last command's completion being the op's own wait.
func TestAtomicRoundTripsCountKicksAndIRQs(t *testing.T) {
	run := func(n int) (took time.Duration, d *Device) {
		rg := newRig(t, ModeAtomic)
		rg.env.Spawn("driver", func(p *sim.Proc) {
			start := p.Now()
			rg.gpu.Submit(p, Op{Kind: OpExec, Exec: ms, Commands: n})
			took = p.Now() - start
		})
		rg.env.RunUntil(time.Second)
		return took, rg.gpu
	}
	const n = 5
	one, d1 := run(1)
	took, d := run(n)
	if trip := virtio.PerCommandCost + virtio.KickCost + virtio.IRQCost; took-one != (n-1)*trip {
		t.Errorf("%d-command op took %v, 1-command op %v: want %d round trips of %v between them", n, took, one, n-1, trip)
	}
	for _, c := range []struct {
		d           *Device
		kicks, irqs int
	}{{d1, 1, 0}, {d, n, n - 1}} {
		if k, i := c.d.Ring().Stats().Kicks, c.d.IRQ().Delivered(); k != c.kicks || i != c.irqs {
			t.Errorf("kicks %d, interrupts %d: want %d and %d", k, i, c.kicks, c.irqs)
		}
	}
}

func TestFenceOrdersCrossDeviceWriteRead(t *testing.T) {
	// Fig. 9c: codec write (slow) then GPU read submitted immediately.
	// Without the wait fence the read would execute first; with it, the
	// read must start after the write commits.
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(16 * hostsim.MiB)
	var readDone time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		w := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 20 * ms})
		rd := rg.gpu.Submit(p, Op{Kind: OpRead, Region: r.ID, Exec: 1 * ms, After: w})
		rd.Wait(p)
		readDone = p.Now()
	})
	rg.env.RunUntil(time.Second)
	if readDone < 21*ms {
		t.Fatalf("read finished at %v, want after the 20ms write + 1ms read", readDone)
	}
	if rg.gpu.Stats().FenceWaits != 1 {
		t.Fatalf("FenceWaits = %d, want 1", rg.gpu.Stats().FenceWaits)
	}
	// The reader saw current data (coherence invariant).
	reg, err := rg.mgr.Region(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.HasCurrentCopy(rg.mach.VRAM) {
		t.Fatal("GPU read completed without a current copy")
	}
}

func TestFenceSkippedWhenAlreadySignaled(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	rg.env.Spawn("driver", func(p *sim.Proc) {
		w := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 1 * ms})
		p.Sleep(10 * ms) // write long done; fence signaled
		rg.gpu.Submit(p, Op{Kind: OpRead, Region: r.ID, Exec: 1 * ms, After: w})
	})
	rg.env.RunUntil(time.Second)
	if rg.gpu.Stats().FenceWaits != 0 {
		t.Fatalf("FenceWaits = %d, want 0 (fence pre-signaled)", rg.gpu.Stats().FenceWaits)
	}
}

func TestPipelinedSubmissionsKeepOrderWithinQueue(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var order []time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			rg.codec.Submit(p, Op{
				Kind: OpExec, Region: r.ID, Exec: 2 * ms,
				OnComplete: func(at time.Duration) { order = append(order, at) },
			})
		}
	})
	rg.env.RunUntil(time.Second)
	if len(order) != 5 {
		t.Fatalf("executed %d ops, want 5", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1]+2*ms {
			t.Fatalf("queue executed out of order / overlapped: %v", order)
		}
	}
}

func TestMIMDPacingEngagesUnderFloodedQueue(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var longest time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			start := p.Now()
			rg.codec.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 1 * ms})
			longest = max(longest, p.Now()-start)
		}
	})
	rg.env.RunUntil(5 * time.Second)
	// An unpaced fence-mode submit returns in microseconds; a paced one
	// waits for a 1 ms op to complete and free a window slot.
	if longest < ms {
		t.Fatalf("longest submit took %v: MIMD should have paced a flooding driver", longest)
	}
	if rg.codec.Stats().Executed != 500 {
		t.Fatalf("Executed = %d, want 500", rg.codec.Stats().Executed)
	}
}

func TestOnCompleteTimestamp(t *testing.T) {
	rg := newRig(t, ModeAtomic)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var at time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		rg.codec.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 7 * ms,
			OnComplete: func(ts time.Duration) { at = ts }})
	})
	rg.env.RunUntil(time.Second)
	if at < 7*ms {
		t.Fatalf("OnComplete at %v, want >= 7ms", at)
	}
}

func TestSharedPhysicalDeviceContention(t *testing.T) {
	// Two virtual devices mapped to the same physical GPU contend for its
	// execution units.
	rg := newRig(t, ModeAtomic)
	cfg := DefaultConfig()
	cfg.Mode = ModeAtomic
	disp := New(rg.env, rg.mgr, "display", vGPU, pGPU, rg.mach.GPU, rg.mach.VRAM, rg.ftab, cfg)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var doneA, doneB time.Duration
	// GPU has 2 units; saturate with 3 concurrent 10ms ops across the two
	// virtual devices: the third must wait.
	rg.env.Spawn("d1", func(p *sim.Proc) {
		rg.gpu.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 10 * ms})
		doneA = p.Now()
	})
	rg.env.Spawn("d2", func(p *sim.Proc) {
		disp.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 10 * ms})
		disp.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 10 * ms})
		doneB = p.Now()
	})
	rg.env.RunUntil(time.Second)
	if doneA > 11*ms {
		t.Fatalf("first op finished at %v, want ~10ms", doneA)
	}
	if doneB < 20*ms {
		t.Fatalf("serialized ops finished at %v, want >= 20ms", doneB)
	}
}

func TestQuickOrderingMatchesSequentialOracle(t *testing.T) {
	// Property: for any random dependency chain of ops spread across two
	// devices, completion order under fence mode matches the dependency
	// (sequential) order — the happens-before contract of §3.4.
	f := func(seed int64, kinds []uint8) bool {
		if len(kinds) == 0 {
			return true
		}
		if len(kinds) > 24 {
			kinds = kinds[:24]
		}
		rg := newRigSeeded(t, ModeFence, seed)
		r, _ := rg.mgr.Alloc(hostsim.MiB)
		var order []int
		okc := true
		rg.env.Spawn("driver", func(p *sim.Proc) {
			var prev, last Ticket
			for i, k := range kinds {
				dev := rg.codec
				if k%2 == 1 {
					dev = rg.gpu
				}
				i := i
				tk := dev.Submit(p, Op{
					Kind: OpExec, Region: r.ID,
					Exec:  time.Duration(1+k%5) * time.Millisecond,
					After: prev,
					OnComplete: func(at time.Duration) {
						order = append(order, i)
					},
				})
				prev = tk
				last = tk
			}
			last.Wait(p)
		})
		rg.env.RunUntil(10 * time.Second)
		if len(order) != len(kinds) {
			return false
		}
		for i, v := range order {
			if v != i {
				okc = false
			}
		}
		return okc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogUnblocksWaiterOnStalledDevice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeFence
	cfg.WatchdogTimeout = 20 * ms
	rg := newRigCfg(t, cfg, 3)
	r, _ := rg.mgr.Alloc(hostsim.MiB)

	// Hang the physical GPU: its queued op can never execute, so the
	// fence the dependent codec op waits on never retires.
	stuck := sim.NewEvent(rg.env)
	rg.mach.GPU.Stall(stuck)

	rg.env.Spawn("driver", func(p *sim.Proc) {
		a := rg.gpu.Submit(p, Op{Kind: OpExec, Exec: ms})
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: ms, After: a})
	})
	rg.env.RunUntil(time.Second)

	if got := rg.codec.Stats().FenceTimeouts; got != 1 {
		t.Fatalf("FenceTimeouts = %d, want 1", got)
	}
	if got := rg.codec.Stats().Executed; got != 1 {
		t.Fatalf("codec Executed = %d, want 1 (watchdog must let the op proceed)", got)
	}
	if got := rg.gpu.Stats().Executed; got != 0 {
		t.Fatalf("gpu Executed = %d, want 0 while stalled", got)
	}
}

func TestNoWatchdogWaitsOutTheStall(t *testing.T) {
	// With the watchdog disabled (the evaluation default) the dependent op
	// waits for the real signal: release the stall mid-run and everything
	// completes with no timeout counted.
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)

	release := sim.NewEvent(rg.env)
	rg.mach.GPU.Stall(release)
	rg.env.After(100*ms, release.Signal)

	rg.env.Spawn("driver", func(p *sim.Proc) {
		a := rg.gpu.Submit(p, Op{Kind: OpExec, Exec: ms})
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: ms, After: a})
	})
	rg.env.RunUntil(time.Second)

	if got := rg.codec.Stats().FenceTimeouts; got != 0 {
		t.Fatalf("FenceTimeouts = %d, want 0", got)
	}
	if rg.codec.Stats().Executed != 1 || rg.gpu.Stats().Executed != 1 {
		t.Fatalf("Executed codec=%d gpu=%d, want 1/1 after stall release",
			rg.codec.Stats().Executed, rg.gpu.Stats().Executed)
	}
}

func TestOpOnRegionFreedMidExecutionIsDropped(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(16 * hostsim.MiB)

	rg.env.Spawn("driver", func(p *sim.Proc) {
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 10 * ms})
	})
	rg.env.After(5*ms, func() {
		if err := rg.mgr.Free(r.ID); err != nil {
			t.Errorf("Free: %v", err)
		}
	})
	rg.env.RunUntil(time.Second)

	st := rg.codec.Stats()
	if st.DroppedOps != 1 {
		t.Fatalf("DroppedOps = %d, want 1", st.DroppedOps)
	}
	if st.Executed != 1 {
		t.Fatalf("Executed = %d, want 1 (host loop must survive the drop)", st.Executed)
	}
}

func TestOpOnAlreadyFreedRegionIsDropped(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	if err := rg.mgr.Free(r.ID); err != nil {
		t.Fatal(err)
	}

	rg.env.Spawn("driver", func(p *sim.Proc) {
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: ms})
	})
	rg.env.RunUntil(time.Second)

	st := rg.codec.Stats()
	if st.DroppedOps != 1 {
		t.Fatalf("DroppedOps = %d, want 1", st.DroppedOps)
	}
	if st.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", st.Executed)
	}
}

var modes = []OrderingMode{ModeFence, ModeAtomic}

// steadyCycle starts a codec driver that runs one write and one dependent
// read of its own region per call of the returned step: a Submit → execute
// → retire cycle of two SVM ops.
func steadyCycle(tb testing.TB, mode OrderingMode) (rg *rig, step func()) {
	rg = newRig(tb, mode)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	const period = 10 * ms
	rg.env.Spawn("driver", func(p *sim.Proc) {
		for {
			w := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: ms})
			rd := rg.codec.Submit(p, Op{Kind: OpRead, Region: r.ID, Exec: ms, After: w})
			rd.Wait(p)
			p.Sleep(period - p.Now()%period)
		}
	})
	return rg, func() { rg.env.RunUntil(rg.env.Now() + period) }
}

// TestSubmitRetireAllocatesNothing: once the record pools are warm, a
// cycle allocates nothing in any ordering mode — no op record, command,
// completion event, fence or SVM access.
func TestSubmitRetireAllocatesNothing(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			rg, step := steadyCycle(t, mode)
			step()
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Fatalf("a Submit → execute → retire cycle allocates %.2f, want 0", allocs)
			}
			if got := rg.codec.Stats().Executed; got < 2*200 {
				t.Fatalf("Executed = %d, want at least 400 ops", got)
			}
		})
	}
}

func BenchmarkSubmit(b *testing.B) {
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			_, step := steadyCycle(b, mode)
			step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestRecycledTicketReadsReady: once a ticket's op has retired and a later
// op reuses its record, the ticket still reads ready (it no longer reaches
// the record), Wait neither parks nor adds an event, ProfNode keeps the
// op's node, and as After it orders nothing: no fence wait in fence mode.
func TestRecycledTicketReadsReady(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			env := sim.NewEnv(3)
			pf := prof.New()
			env.SetProfiler(pf)
			cfg := DefaultConfig()
			cfg.Mode = mode
			rg := newRigEnv(t, env, cfg, svm.DefaultConfig())
			env.Spawn("driver", func(p *sim.Proc) {
				a := rg.codec.Submit(p, Op{Kind: OpExec, Exec: ms})
				node := a.ProfNode()
				a.Wait(p)
				env.Spawn("next", func(p *sim.Proc) {
					rg.codec.Submit(p, Op{Kind: OpExec, Exec: 50 * ms})
				})
				p.Sleep(ms)
				if a.rec.gen != a.gen+1 || rg.codec.Stats().Executed != 1 {
					t.Error("the next op is not in flight on a's record")
					return
				}
				if a.live() != nil {
					t.Error("recycled ticket reads its record's new op")
				}
				now, events := p.Now(), env.ExecutedEvents()
				a.Wait(p)
				if p.Now() != now || env.ExecutedEvents() != events {
					t.Errorf("Wait on a recycled ticket parked: %v → %v, %d → %d events",
						now, p.Now(), events, env.ExecutedEvents())
				}
				if node == nil || a.ProfNode() != node || a.rec.node == node {
					t.Error("recycled ticket lost its profiler node")
				}
				c := rg.gpu.Submit(p, Op{Kind: OpExec, Exec: ms, After: a})
				c.Wait(p)
				if p.Now() >= 50*ms {
					t.Errorf("c ordered behind the record's next op, done at %v", p.Now())
				}
			})
			env.RunUntil(time.Second)
			if got := rg.gpu.Stats().FenceWaits; got != 0 {
				t.Fatalf("FenceWaits = %d, want 0 after a recycled ticket", got)
			}
		})
	}
}
