package svm

import (
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
)

// benchRig builds a manager with a codec->GPU pipeline for benchmarking.
func benchRig(b *testing.B, cfg Config) (*sim.Env, *Manager, Accessor, Accessor) {
	b.Helper()
	env := sim.NewEnv(1)
	mach := hostsim.HighEndDesktop(env)
	m := NewManager(env, mach, cfg)
	m.RegisterVirtualDevice(vCodec, "vcodec")
	m.RegisterVirtualDevice(vGPU, "vgpu")
	m.RegisterPhysicalDevice(pCodec, "codec", mach.DRAM)
	m.RegisterPhysicalDevice(pGPU, "gpu", mach.VRAM)
	codec := Accessor{Virtual: vCodec, Physical: pCodec, Domain: mach.DRAM}
	gpu := Accessor{Virtual: vGPU, Physical: pGPU, Domain: mach.VRAM}
	b.Cleanup(env.Close)
	return env, m, codec, gpu
}

// BenchmarkPipelineCycle measures one full write->slack->read SVM cycle
// under each protocol, and under write-invalidate with chunked demand
// fetches, whose read drives one chunked transfer per cycle (simulation
// work per cycle, not simulated time).
func BenchmarkPipelineCycle(b *testing.B) {
	type bench struct {
		name string
		cfg  Config
	}
	var benches []bench
	for _, kind := range []Kind{KindPrefetch, KindWriteInvalidate, KindBroadcast, KindGuestSync} {
		cfg := DefaultConfig()
		cfg.Kind = kind
		benches = append(benches, bench{kind.String(), cfg})
	}
	chunked := DefaultConfig()
	chunked.Kind, chunked.Fetch = KindWriteInvalidate, hostsim.EnabledFetch()
	benches = append(benches, bench{"write-invalidate-chunked", chunked})
	for _, bc := range benches {
		b.Run(bc.name, func(b *testing.B) {
			env, m, codec, gpu := benchRig(b, bc.cfg)
			r, _ := m.Alloc(16 * hostsim.MiB)
			n := b.N
			env.Spawn("pipeline", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					a, _ := m.BeginAccess(p, r.ID, codec, UsageWrite, 0)
					info, _ := a.End(p)
					p.Sleep(info.Compensation + 16*time.Millisecond)
					rd, _ := m.BeginAccess(p, r.ID, gpu, UsageRead, 0)
					_, _ = rd.End(p)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			env.Run()
		})
	}
}

// BenchmarkAllocFree measures region table churn.
func BenchmarkAllocFree(b *testing.B) {
	env, m, _, _ := benchRig(b, DefaultConfig())
	_ = env
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := m.Alloc(hostsim.MiB)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Free(r.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictCompensation measures the guest driver's MMIO-side
// prediction query (must be cheap: it is on every write dispatch).
func BenchmarkPredictCompensation(b *testing.B) {
	env, m, codec, gpu := benchRig(b, DefaultConfig())
	r, _ := m.Alloc(16 * hostsim.MiB)
	// Warm the flow so predictions resolve.
	env.Spawn("warm", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			a, _ := m.BeginAccess(p, r.ID, codec, UsageWrite, 0)
			_, _ = a.End(p)
			p.Sleep(16 * time.Millisecond)
			rd, _ := m.BeginAccess(p, r.ID, gpu, UsageRead, 0)
			_, _ = rd.End(p)
		}
	})
	env.RunUntil(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictCompensation(r.ID, codec)
	}
}
