package svm

import (
	"slices"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

const ms = time.Millisecond

// Node IDs used across tests.
const (
	vCPU hypergraph.NodeID = iota
	vCodec
	vGPU
	vCam
	vNIC
)
const (
	pCPU hypergraph.NodeID = iota
	pCodec
	pGPU
	pCam
	pNIC
)

type rig struct {
	env  *sim.Env
	mach *hostsim.Machine
	m    *Manager

	cpu, codec, gpu, cam, nic Accessor
}

func newRig(t *testing.T, kind Kind) *rig {
	cfg := DefaultConfig()
	cfg.Kind = kind
	return newRigCfg(t, cfg)
}

func newRigCfg(t *testing.T, cfg Config) *rig {
	t.Helper()
	kind := cfg.Kind
	env := sim.NewEnv(7)
	mach := hostsim.HighEndDesktop(env)
	m := NewManager(env, mach, cfg)

	m.RegisterVirtualDevice(vCPU, "vcpu")
	m.RegisterVirtualDevice(vCodec, "vcodec")
	m.RegisterVirtualDevice(vGPU, "vgpu")
	m.RegisterVirtualDevice(vCam, "vcam")
	m.RegisterVirtualDevice(vNIC, "vnic")

	cpuDomain := mach.DRAM
	if kind == KindGuestSync {
		cpuDomain = mach.Guest
	}
	m.RegisterPhysicalDevice(pCPU, "cpu", cpuDomain)
	m.RegisterPhysicalDevice(pCodec, "codec", mach.DRAM)
	m.RegisterPhysicalDevice(pGPU, "gpu", mach.VRAM)
	m.RegisterPhysicalDevice(pCam, "cam", mach.CamBuf)
	m.RegisterPhysicalDevice(pNIC, "nic", mach.NICBuf)

	r := &rig{
		env:   env,
		mach:  mach,
		m:     m,
		cpu:   Accessor{Virtual: vCPU, Physical: pCPU, Domain: cpuDomain, Name: "cpu"},
		codec: Accessor{Virtual: vCodec, Physical: pCodec, Domain: mach.DRAM, Name: "codec"},
		gpu:   Accessor{Virtual: vGPU, Physical: pGPU, Domain: mach.VRAM, Name: "gpu"},
		cam:   Accessor{Virtual: vCam, Physical: pCam, Domain: mach.CamBuf, Name: "cam"},
		nic:   Accessor{Virtual: vNIC, Physical: pNIC, Domain: mach.NICBuf, Name: "nic"},
	}
	t.Cleanup(env.Close)
	return r
}

// write performs a full write access in p.
func (rg *rig) write(t *testing.T, p *sim.Proc, id RegionID, acc Accessor) EndInfo {
	t.Helper()
	a, err := rg.m.BeginAccess(p, id, acc, UsageWrite, 0)
	if err != nil {
		t.Fatalf("write begin: %v", err)
	}
	info, err := a.End(p)
	if err != nil {
		t.Fatalf("write end: %v", err)
	}
	return info
}

// read performs a full read access in p and returns its blocking latency.
func (rg *rig) read(t *testing.T, p *sim.Proc, id RegionID, acc Accessor) time.Duration {
	t.Helper()
	start := p.Now()
	a, err := rg.m.BeginAccess(p, id, acc, UsageRead, 0)
	if err != nil {
		t.Fatalf("read begin: %v", err)
	}
	lat := p.Now() - start
	if _, err := a.End(p); err != nil {
		t.Fatalf("read end: %v", err)
	}
	return lat
}

func TestAllocAssignsUniqueIDs(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	a, err := rg.m.Alloc(hostsim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rg.m.Alloc(hostsim.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("region IDs must be unique")
	}
	if len(rg.m.regions) != 2 {
		t.Fatalf("live regions = %d, want 2", len(rg.m.regions))
	}
}

func TestAllocRejectsBadSize(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	if _, err := rg.m.Alloc(0); err == nil {
		t.Fatal("want error for zero size")
	}
	if _, err := rg.m.Alloc(-5); err == nil {
		t.Fatal("want error for negative size")
	}
}

func TestFreeThenAccessFails(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(hostsim.MiB)
	if err := rg.m.Free(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := rg.m.Free(r.ID); err == nil {
		t.Fatal("double free should error")
	}
	var accessErr error
	rg.env.Spawn("t", func(p *sim.Proc) {
		_, accessErr = rg.m.BeginAccess(p, r.ID, rg.cpu, UsageRead, 0)
	})
	rg.env.Run()
	if accessErr == nil {
		t.Fatal("access after free should error")
	}
}

func TestAccessSizeValidation(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(hostsim.MiB)
	var err error
	rg.env.Spawn("t", func(p *sim.Proc) {
		_, err = rg.m.BeginAccess(p, r.ID, rg.cpu, UsageRead, 2*hostsim.MiB)
	})
	rg.env.Run()
	if err != ErrBadSize {
		t.Fatalf("err = %v, want ErrBadSize", err)
	}
}

func TestDoubleEndFails(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(hostsim.MiB)
	var second error
	rg.env.Spawn("t", func(p *sim.Proc) {
		a, _ := rg.m.BeginAccess(p, r.ID, rg.cpu, UsageWrite, 0)
		_, _ = a.End(p)
		_, second = a.End(p)
	})
	rg.env.Run()
	if second != ErrAccessEnded {
		t.Fatalf("second End = %v, want ErrAccessEnded", second)
	}
}

func TestSameDomainReadIsFree(t *testing.T) {
	// Codec and a second reader in the same domain: the in-GPU-style
	// shortest path — no coherence copy at all (§3.2).
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	otherDRAM := Accessor{Virtual: vCPU, Physical: pCPU, Domain: rg.mach.DRAM, Name: "svc"}
	var lat time.Duration
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		p.Sleep(5 * ms)
		lat = rg.read(t, p, r.ID, otherDRAM)
	})
	rg.env.Run()
	if got := rg.m.Stats().CoherenceCost.Count(); got != 0 {
		t.Fatalf("coherence copies = %d, want 0 for same-domain", got)
	}
	if lat > ms {
		t.Fatalf("same-domain read latency = %v, want ~base cost", lat)
	}
	if rg.m.Stats().SameDomainHits != 1 {
		t.Fatalf("SameDomainHits = %d, want 1", rg.m.Stats().SameDomainHits)
	}
}

func TestWriteInvalidateDemandFetchBlocksReader(t *testing.T) {
	rg := newRig(t, KindWriteInvalidate)
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	var lat time.Duration
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		p.Sleep(5 * ms)
		lat = rg.read(t, p, r.ID, rg.gpu) // DRAM -> VRAM demand fetch
	})
	rg.env.Run()
	// Demand fetches use the synchronous upload path: 16 MiB at ~1.1
	// GiB/s is ~15ms (the Fig. 16 regime), far above the ~2ms DMA push.
	if lat < 10*ms || lat > 25*ms {
		t.Fatalf("demand-fetch latency = %v, want ~15ms", lat)
	}
	st := rg.m.Stats()
	if st.DemandFetches != 1 {
		t.Fatalf("DemandFetches = %d, want 1", st.DemandFetches)
	}
	if st.CoherenceCost.Count() != 1 {
		t.Fatalf("coherence events = %d, want 1", st.CoherenceCost.Count())
	}
}

func TestStaleCopyInvalidatedByNewWrite(t *testing.T) {
	rg := newRig(t, KindWriteInvalidate)
	r, _ := rg.m.Alloc(hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		rg.read(t, p, r.ID, rg.gpu) // gpu now holds v1
		rg.write(t, p, r.ID, rg.codec)
		if r.HasCurrentCopy(rg.mach.VRAM) {
			t.Error("VRAM copy should be stale after second write")
		}
		rg.read(t, p, r.ID, rg.gpu) // must fetch again
	})
	rg.env.Run()
	if got := rg.m.Stats().DemandFetches; got != 2 {
		t.Fatalf("DemandFetches = %d, want 2", got)
	}
}

func TestGuestSyncDoubleCrossing(t *testing.T) {
	// Modular architecture: write pushes device->guest, read pulls
	// guest->device. Two boundary crossings per W/R pair (§2.2).
	rg := newRig(t, KindGuestSync)
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		p.Sleep(5 * ms)
		rg.read(t, p, r.ID, rg.gpu)
	})
	rg.env.Run()
	st := rg.m.Stats()
	if st.GuestCoherence != 2 {
		t.Fatalf("GuestCoherence = %d, want 2 (push + pull)", st.GuestCoherence)
	}
	if st.DirectCoherence != 0 {
		t.Fatalf("DirectCoherence = %d, want 0", st.DirectCoherence)
	}
	// Each crossing of a 16 MiB frame at 2.4 GiB/s is ~6.7ms.
	if mean := st.CoherenceCost.Mean(); mean < 5 || mean > 12 {
		t.Fatalf("mean coherence = %.2fms, want 5-12ms (Fig. 5 regime)", mean)
	}
	if st.DirectShare() != 0 {
		t.Fatalf("DirectShare = %v, want 0", st.DirectShare())
	}
}

func TestGuestSyncCPUAccessCheap(t *testing.T) {
	// QEMU-style: CPU (guest pages) reads of guest-backed data are just
	// page mapping — no coherence (Table 2's low QEMU access latency).
	rg := newRig(t, KindGuestSync)
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	var lat time.Duration
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.cpu) // CPU writes in guest memory
		lat = rg.read(t, p, r.ID, Accessor{Virtual: vCPU, Physical: pCPU, Domain: rg.mach.Guest, Name: "other-proc"})
	})
	rg.env.Run()
	if lat > ms {
		t.Fatalf("guest CPU->CPU read latency = %v, want ~base", lat)
	}
}

// runPipeline drives n write->slack->read cycles of a codec->GPU pipeline
// and returns the read latencies.
func runPipeline(t *testing.T, rg *rig, r *Region, n int, slack time.Duration) []time.Duration {
	t.Helper()
	lats := make([]time.Duration, 0, n)
	done := false
	rg.env.Spawn("pipeline", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			info := rg.write(t, p, r.ID, rg.codec)
			if info.Compensation > 0 {
				p.Sleep(info.Compensation)
			}
			p.Sleep(slack)
			lats = append(lats, rg.read(t, p, r.ID, rg.gpu))
		}
		done = true
	})
	rg.env.RunUntil(time.Duration(n) * (slack + 100*ms))
	if !done {
		t.Fatal("pipeline did not finish")
	}
	return lats
}

func TestPrefetchHidesCoherenceUnderSlack(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	lats := runPipeline(t, rg, r, 20, 20*ms)

	// First cycle: no history, demand fetch. Later cycles: prefetch hits.
	if lats[0] < ms {
		t.Fatalf("first read latency = %v, want a demand fetch", lats[0])
	}
	for i, lat := range lats[5:] {
		if lat > ms {
			t.Fatalf("warmed read %d latency = %v, want ~base (prefetch hit)", i+5, lat)
		}
	}
	st := rg.m.Stats()
	if st.PrefetchHits < 15 {
		t.Fatalf("PrefetchHits = %d, want >= 15", st.PrefetchHits)
	}
	if st.DemandFetches > 2 {
		t.Fatalf("DemandFetches = %d, want <= 2", st.DemandFetches)
	}
	if acc := st.PredictionAccuracy(); acc < 0.99 {
		t.Fatalf("prediction accuracy = %.3f, want >= 0.99 (§5.2)", acc)
	}
	if st.DirectShare() != 1 {
		t.Fatalf("DirectShare = %v, want 1 (all host-direct)", st.DirectShare())
	}
}

func TestPrefetchCompensationWhenSlackTooShort(t *testing.T) {
	// Slack 1ms < prefetch ~2ms: the Fig. 8 case. After warmup the write
	// End must return a positive compensation, and reads still see low
	// latency because the driver blocked out the difference.
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	var comps []time.Duration
	var lats []time.Duration
	rg.env.Spawn("pipeline", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			info := rg.write(t, p, r.ID, rg.codec)
			comps = append(comps, info.Compensation)
			if info.Compensation > 0 {
				p.Sleep(info.Compensation)
			}
			p.Sleep(1 * ms)
			lats = append(lats, rg.read(t, p, r.ID, rg.gpu))
		}
	})
	rg.env.RunUntil(5 * time.Second)
	warmedComp := false
	for _, c := range comps[2:] {
		if c > 0 {
			warmedComp = true
		}
	}
	if !warmedComp {
		t.Fatalf("no compensation issued with short slack; comps = %v", comps)
	}
	for i, lat := range lats[3:] {
		if lat > 2*ms {
			t.Fatalf("read %d latency = %v, want small (compensated prefetch)", i+3, lat)
		}
	}
}

func TestPrefetchSlackAndSizeRecorded(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(8 * hostsim.MiB)
	runPipeline(t, rg, r, 10, 20*ms)
	st := rg.m.Stats()
	if st.SlackIntervals.Count() < 9 {
		t.Fatalf("slack samples = %d, want >= 9", st.SlackIntervals.Count())
	}
	mean := st.SlackIntervals.Mean()
	if mean < 19 || mean > 25 {
		t.Fatalf("mean slack = %.2fms, want ~20-24ms", mean)
	}
	// Slack prediction error should be tiny for a steady pipeline.
	if st.SlackError.Count() > 0 && st.SlackError.Mean() > 2 {
		t.Fatalf("mean slack error = %.2fms, want < 2ms", st.SlackError.Mean())
	}
}

func TestPrefetchWaitPartialHit(t *testing.T) {
	// Slack shorter than the copy and no compensation applied by the
	// caller: the reader must wait for the in-flight prefetch, never see
	// stale data.
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(64 * hostsim.MiB) // big: ~6ms over PCIe
	rg.env.Spawn("pipeline", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			rg.write(t, p, r.ID, rg.codec)
			// Deliberately ignore compensation; tiny slack.
			p.Sleep(500 * time.Microsecond)
			rg.read(t, p, r.ID, rg.gpu)
			if !r.HasCurrentCopy(rg.mach.VRAM) {
				t.Error("reader proceeded without current copy")
			}
		}
	})
	rg.env.RunUntil(5 * time.Second)
	st := rg.m.Stats()
	if st.PrefetchWaits == 0 {
		t.Fatalf("PrefetchWaits = 0, want some waits (stats: hits=%d demand=%d)",
			st.PrefetchHits, st.DemandFetches)
	}
}

func TestMispredictionsSuspendPrefetch(t *testing.T) {
	// Readers alternate unpredictably among GPU and CPU each generation,
	// so the flow-based prediction keeps missing; after three consecutive
	// misses the engine suspends (§3.3 corner case).
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(4 * hostsim.MiB)
	readers := []Accessor{rg.gpu, rg.nic, rg.gpu, rg.nic, rg.gpu, rg.nic, rg.nic, rg.gpu}
	rg.env.Spawn("pipeline", func(p *sim.Proc) {
		for _, rd := range readers {
			rg.write(t, p, r.ID, rg.codec)
			p.Sleep(20 * ms)
			rg.read(t, p, r.ID, rd)
		}
	})
	rg.env.RunUntil(5 * time.Second)
	st := rg.m.Stats()
	if st.PredTotal == 0 {
		t.Fatal("no predictions scored")
	}
	if st.PredictionAccuracy() > 0.5 {
		t.Fatalf("accuracy = %.2f, expected mostly misses", st.PredictionAccuracy())
	}
	if rg.m.Engine().Suspensions() == 0 {
		t.Fatal("engine should have suspended after consecutive failures")
	}
}

func TestBroadcastPushesToAllKnownDomainsAndCountsWaste(t *testing.T) {
	rg := newRig(t, KindBroadcast)
	r, _ := rg.m.Alloc(4 * hostsim.MiB)
	rg.env.Spawn("pipeline", func(p *sim.Proc) {
		// Round 1 establishes copies in DRAM (codec), VRAM (gpu) and
		// the NIC buffer.
		rg.write(t, p, r.ID, rg.codec)
		p.Sleep(10 * ms)
		rg.read(t, p, r.ID, rg.gpu)
		p.Sleep(10 * ms)
		rg.read(t, p, r.ID, rg.nic)
		// Round 2: only the GPU reads; the push to the NIC is waste.
		rg.write(t, p, r.ID, rg.codec)
		p.Sleep(20 * ms)
		rg.read(t, p, r.ID, rg.gpu)
		// Round 3 write turns the unconsumed NIC copy into waste.
		rg.write(t, p, r.ID, rg.codec)
	})
	rg.env.RunUntil(5 * time.Second)
	st := rg.m.Stats()
	if st.BytesWasted == 0 {
		t.Fatal("broadcast should have wasted bytes on the unread NIC copy")
	}
	if st.PrefetchHits == 0 {
		t.Fatal("broadcast should deliver useful pushes too")
	}
}

func TestLazyMaterialization(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	_, _ = rg.m.Alloc(100 * hostsim.MiB)
	if got := rg.m.Stats().RegionSizes.Count(); got != 0 {
		t.Fatalf("RegionSizes count = %d before first access, want 0", got)
	}
	r2, _ := rg.m.Alloc(10 * hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r2.ID, rg.codec)
	})
	rg.env.Run()
	if got := rg.m.Stats().RegionSizes.Count(); got != 1 {
		t.Fatalf("RegionSizes count = %d, want 1 (only accessed region)", got)
	}
	if got := rg.m.Stats().RegionSizes.Mean(); got != 10 {
		t.Fatalf("materialized size = %v MiB, want 10", got)
	}
}

func TestThroughputCounting(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(8 * hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		p.Sleep(10 * ms)
		rg.read(t, p, r.ID, rg.gpu)
	})
	rg.env.Run()
	want := hostsim.Bytes(16 * hostsim.MiB) // 8 written + 8 read
	if got := rg.m.Stats().BytesAccessed; got != want {
		t.Fatalf("BytesAccessed = %d, want %d", got, want)
	}
}

func TestHypergraphMappingBuiltFromAccesses(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.cam)
		p.Sleep(5 * ms)
		rg.read(t, p, r.ID, rg.codec) // ISP-style reader
		rg.read(t, p, r.ID, rg.gpu)   // plus GPU: multi-dest hyperedge
	})
	rg.env.Run()
	m, ok := rg.m.Twin().Lookup(uint64(r.ID))
	if !ok {
		t.Fatal("region not mapped in twin hypergraphs")
	}
	if len(m.Virtual.Dests) != 2 {
		t.Fatalf("virtual dests = %v, want 2 (hyperedge)", m.Virtual.Dests)
	}
	if !slices.Contains(m.Virtual.Sources, vCam) || !slices.Contains(m.Physical.Sources, pCam) {
		t.Fatal("edge sources should be the camera")
	}
}

func TestZeroShotPredictionForFreshRegion(t *testing.T) {
	// Warm a flow with region A, then switch to a brand-new region B on
	// the same pipeline: the first write to B should already prefetch
	// (zero-shot via flow-level history, §3.3).
	rg := newRig(t, KindPrefetch)
	a, _ := rg.m.Alloc(8 * hostsim.MiB)
	runPipeline(t, rg, a, 5, 20*ms)
	b, _ := rg.m.Alloc(8 * hostsim.MiB)
	var lat time.Duration
	rg.env.Spawn("fresh", func(p *sim.Proc) {
		info := rg.write(t, p, b.ID, rg.codec)
		if info.Compensation > 0 {
			p.Sleep(info.Compensation)
		}
		p.Sleep(20 * ms)
		lat = rg.read(t, p, b.ID, rg.gpu)
	})
	rg.env.RunUntil(10 * time.Second)
	if lat > ms {
		t.Fatalf("fresh-region read latency = %v, want prefetch hit via zero-shot", lat)
	}
}

func TestManagerMemoryFootprintWithinBudget(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	for i := 0; i < 1000; i++ {
		_, _ = rg.m.Alloc(hostsim.MiB)
	}
	if fp := rg.m.MemoryFootprint(); fp > 3100*1024 {
		t.Fatalf("footprint = %d, exceeds 3.1 MiB budget", fp)
	}
}

func TestHALLifecycle(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	mod := NewModule(rg.m, rg.cpu)
	rg.env.Spawn("app", func(p *sim.Proc) {
		h, err := mod.Alloc(p, 4*hostsim.MiB)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if _, err := mod.RegionOf(h); err != nil {
			t.Errorf("RegionOf: %v", err)
		}
		a, err := mod.BeginAccess(p, h, UsageWrite, 0)
		if err != nil {
			t.Errorf("begin: %v", err)
			return
		}
		if _, err := a.End(p); err != nil {
			t.Errorf("end: %v", err)
		}
		if err := mod.Free(p, h); err != nil {
			t.Errorf("free: %v", err)
		}
		if err := mod.Free(p, h); err != ErrUnknownHandle {
			t.Errorf("double free = %v, want ErrUnknownHandle", err)
		}
		if _, err := mod.BeginAccess(p, h, UsageRead, 0); err != ErrUnknownHandle {
			t.Errorf("begin after free = %v, want ErrUnknownHandle", err)
		}
	})
	rg.env.Run()
	if len(mod.handles) != 0 {
		t.Fatalf("live handles = %d, want 0", len(mod.handles))
	}
}

func TestCoherenceInvariantReaderNeverStale(t *testing.T) {
	// Property: across every protocol and a randomized pipeline, after
	// BeginAccess(read) returns, the reader's domain holds the current
	// version.
	for _, kind := range []Kind{KindPrefetch, KindWriteInvalidate, KindBroadcast, KindGuestSync} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rg := newRig(t, kind)
			r, _ := rg.m.Alloc(4 * hostsim.MiB)
			readers := []Accessor{rg.gpu, rg.nic, rg.gpu, rg.gpu, rg.nic}
			rg.env.Spawn("pipeline", func(p *sim.Proc) {
				for i := 0; i < 30; i++ {
					info := rg.write(t, p, r.ID, rg.codec)
					if info.Compensation > 0 {
						p.Sleep(info.Compensation)
					}
					p.Sleep(time.Duration(rg.env.Rand().Intn(10)) * ms)
					rd := readers[rg.env.Rand().Intn(len(readers))]
					a, err := rg.m.BeginAccess(p, r.ID, rd, UsageRead, 0)
					if err != nil {
						t.Errorf("begin: %v", err)
						return
					}
					if !r.HasCurrentCopy(rd.Domain) {
						t.Errorf("iteration %d: %s read stale data (protocol %s)", i, rd.Name, kind)
						return
					}
					_, _ = a.End(p)
				}
			})
			rg.env.RunUntil(30 * time.Second)
		})
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (float64, int) {
		env := sim.NewEnv(99)
		defer env.Close()
		mach := hostsim.HighEndDesktop(env)
		m := NewManager(env, mach, DefaultConfig())
		m.RegisterVirtualDevice(vCodec, "vcodec")
		m.RegisterVirtualDevice(vGPU, "vgpu")
		m.RegisterPhysicalDevice(pCodec, "codec", mach.DRAM)
		m.RegisterPhysicalDevice(pGPU, "gpu", mach.VRAM)
		codec := Accessor{Virtual: vCodec, Physical: pCodec, Domain: mach.DRAM}
		gpu := Accessor{Virtual: vGPU, Physical: pGPU, Domain: mach.VRAM}
		r, _ := m.Alloc(8 * hostsim.MiB)
		env.Spawn("pipe", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				a, _ := m.BeginAccess(p, r.ID, codec, UsageWrite, 0)
				info, _ := a.End(p)
				p.Sleep(info.Compensation + time.Duration(env.Rand().Intn(20))*ms)
				b, _ := m.BeginAccess(p, r.ID, gpu, UsageRead, 0)
				_, _ = b.End(p)
			}
		})
		env.RunUntil(20 * time.Second)
		return m.Stats().AccessLatency.Mean(), m.Stats().PrefetchHits
	}
	m1, h1 := run()
	m2, h2 := run()
	if m1 != m2 || h1 != h2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", m1, h1, m2, h2)
	}
}

func TestCPUOnlyIPCHasNoCoherenceCost(t *testing.T) {
	// §2.3's minor usage: ~1% of shared memory serves plain CPU-to-CPU
	// IPC between app processes. Same domain on both ends means the SVM
	// framework never copies, regardless of protocol.
	for _, kind := range []Kind{KindPrefetch, KindGuestSync} {
		rg := newRig(t, kind)
		r, _ := rg.m.Alloc(256 * hostsim.KiB)
		writer := rg.cpu
		reader := rg.cpu
		reader.Name = "other-process"
		rg.env.Spawn("ipc", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				rg.write(t, p, r.ID, writer)
				p.Sleep(ms)
				rg.read(t, p, r.ID, reader)
			}
		})
		rg.env.RunUntil(time.Second)
		if got := rg.m.Stats().CoherenceCost.Count(); got != 0 {
			t.Fatalf("%v: IPC triggered %d coherence copies, want 0", kind, got)
		}
	}
}

func TestManagerAccessors(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	if rg.m.Kind() != KindPrefetch {
		t.Fatalf("kind = %v, want prefetch", rg.m.Kind())
	}
	if d, ok := rg.m.physDomain[pGPU]; !ok || d != rg.mach.VRAM {
		t.Fatal("physical device registered in the wrong domain")
	}
	for kind, want := range map[Kind]string{
		KindPrefetch:        "prefetch",
		KindWriteInvalidate: "write-invalidate",
		KindBroadcast:       "broadcast",
		KindGuestSync:       "guest-sync",
	} {
		if kind.String() != want {
			t.Fatalf("kind name = %s, want %s", kind, want)
		}
	}
	for u, s := range map[Usage]string{UsageRead: "RO", UsageWrite: "WO", UsageReadWrite: "RW", Usage(9): "Usage(9)"} {
		if u.String() != s {
			t.Fatalf("%d.String() = %s, want %s", u, u.String(), s)
		}
	}
}

func TestAccessAccessorsAndStats(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(4 * hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		a, err := rg.m.BeginAccess(p, r.ID, rg.codec, UsageWrite, hostsim.MiB)
		if err != nil {
			t.Error(err)
			return
		}
		if a.r != r || a.usage != UsageWrite || a.bytes != hostsim.MiB {
			t.Error("access accessors wrong")
		}
		if r.owner != nil {
			t.Error("owner should be nil before first commit")
		}
		_, _ = a.End(p)
		if r.owner != rg.mach.DRAM {
			t.Error("owner should be the writer's domain")
		}
	})
	rg.env.Run()
	st := rg.m.Stats()
	if st.Throughput(time.Second) != float64(hostsim.MiB) {
		t.Fatalf("Throughput = %v", st.Throughput(time.Second))
	}
	if st.Throughput(0) != 0 || st.WasteFraction() != 0 {
		t.Fatal("degenerate stats should be zero")
	}
}

func TestObserverReceivesAccesses(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(hostsim.MiB)
	calls := 0
	rg.m.SetObserver(func(at time.Duration, acc Accessor, region RegionID,
		bytes hostsim.Bytes, usage Usage, latency time.Duration) {
		calls++
		if region != r.ID || bytes != hostsim.MiB {
			t.Errorf("observer saw region %d bytes %d", region, bytes)
		}
	})
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		rg.m.SetObserver(nil)
		rg.write(t, p, r.ID, rg.codec)
	})
	rg.env.Run()
	if calls != 1 {
		t.Fatalf("observer calls = %d, want 1", calls)
	}
}

func TestWriteToRegionFreedMidAccessReturnsErrFreed(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	reg, err := rg.m.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}

	rg.env.Spawn("writer", func(p *sim.Proc) {
		a, err := rg.m.BeginAccess(p, reg.ID, rg.codec, UsageWrite, 1<<20)
		if err != nil {
			t.Errorf("BeginAccess: %v", err)
			return
		}
		p.Sleep(5 * ms) // region is freed while the write is in flight
		before := rg.m.Stats().BytesAccessed
		if _, err := a.End(p); err != ErrFreed {
			t.Errorf("End on freed region = %v, want ErrFreed", err)
		}
		if got := rg.m.Stats().BytesAccessed; got != before {
			t.Errorf("BytesAccessed counted %d bytes of a lost write", got-before)
		}
		// The commit must not have happened: no new version to observe.
	})
	rg.env.Spawn("freer", func(p *sim.Proc) {
		p.Sleep(2 * ms)
		if err := rg.m.Free(reg.ID); err != nil {
			t.Errorf("Free: %v", err)
		}
	})
	rg.env.RunUntil(time.Second)
}

func TestReadEndOnFreedRegionCompletes(t *testing.T) {
	// A read that began before the free completes normally: its data was
	// already fetched, nothing is lost. Only the *write* commit path is a
	// use-after-free — pin the asymmetry.
	rg := newRig(t, KindPrefetch)
	reg, err := rg.m.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rg.env.Spawn("setup", func(p *sim.Proc) {
		rg.write(t, p, reg.ID, rg.codec)
		a, err := rg.m.BeginAccess(p, reg.ID, rg.gpu, UsageRead, 1<<20)
		if err != nil {
			t.Fatalf("BeginAccess: %v", err)
		}
		if err := rg.m.Free(reg.ID); err != nil {
			t.Fatalf("Free: %v", err)
		}
		if _, err := a.End(p); err != nil {
			t.Errorf("read End after free = %v, want nil (data already delivered)", err)
		}
	})
	rg.env.RunUntil(time.Second)
}
