package svm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
)

// TestQuickRandomOpSequences drives the manager with randomized operation
// sequences across all four protocols and checks the global invariants that
// must hold for ANY schedule:
//
//  1. a read never observes a stale copy (coherence),
//  2. waste and coherence byte counters never go negative or exceed totals,
//  3. prediction bookkeeping stays within [0,1],
//  4. freeing is always clean (no dangling region state).
func TestQuickRandomOpSequences(t *testing.T) {
	f := func(seed int64, kindRaw uint8, opsRaw []uint8) bool {
		kind := Kind(kindRaw % 4)
		env := sim.NewEnv(seed)
		defer env.Close()
		mach := hostsim.HighEndDesktop(env)
		cfg := DefaultConfig()
		cfg.Kind = kind
		m := NewManager(env, mach, cfg)
		m.RegisterVirtualDevice(vCodec, "vcodec")
		m.RegisterVirtualDevice(vGPU, "vgpu")
		m.RegisterVirtualDevice(vNIC, "vnic")
		m.RegisterPhysicalDevice(pCodec, "codec", mach.DRAM)
		m.RegisterPhysicalDevice(pGPU, "gpu", mach.VRAM)
		m.RegisterPhysicalDevice(pNIC, "nic", mach.NICBuf)
		accs := []Accessor{
			{Virtual: vCodec, Physical: pCodec, Domain: mach.DRAM, Name: "codec"},
			{Virtual: vGPU, Physical: pGPU, Domain: mach.VRAM, Name: "gpu"},
			{Virtual: vNIC, Physical: pNIC, Domain: mach.NICBuf, Name: "nic"},
		}

		ok := true
		env.Spawn("fuzz", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			var regions []*Region
			for _, op := range opsRaw {
				switch op % 8 {
				case 0: // alloc
					r, err := m.Alloc(hostsim.Bytes(1+rng.Intn(16)) * hostsim.MiB)
					if err != nil {
						ok = false
						return
					}
					regions = append(regions, r)
				case 1: // free a random region
					if len(regions) > 0 {
						i := rng.Intn(len(regions))
						_ = m.Free(regions[i].ID)
						regions = append(regions[:i], regions[i+1:]...)
					}
				case 2, 3, 4: // write then sleep a random slack
					if len(regions) > 0 {
						r := regions[rng.Intn(len(regions))]
						acc := accs[rng.Intn(len(accs))]
						a, err := m.BeginAccess(p, r.ID, acc, UsageWrite, 0)
						if err != nil {
							ok = false
							return
						}
						info, _ := a.End(p)
						p.Sleep(info.Compensation + time.Duration(rng.Intn(20))*time.Millisecond)
					}
				default: // read (skipping the camera-less NIC->x routes is fine)
					if len(regions) > 0 {
						r := regions[rng.Intn(len(regions))]
						acc := accs[rng.Intn(len(accs))]
						a, err := m.BeginAccess(p, r.ID, acc, UsageRead, 0)
						if err != nil {
							ok = false
							return
						}
						if r.version > 0 && !r.HasCurrentCopy(acc.Domain) {
							ok = false // stale read: the core coherence invariant broke
							return
						}
						_, _ = a.End(p)
						p.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
					}
				}
			}
		})
		env.RunUntil(time.Minute)

		st := m.Stats()
		if st.BytesWasted < 0 || st.BytesCoherence < 0 || st.BytesAccessed < 0 {
			return false
		}
		if st.PredTotal < st.PredCorrect {
			return false
		}
		if ds := st.DirectShare(); ds < 0 || ds > 1 {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVersionMonotonic checks that versions only move forward no
// matter how writers interleave.
func TestQuickVersionMonotonic(t *testing.T) {
	f := func(seed int64, writes uint8) bool {
		env := sim.NewEnv(seed)
		defer env.Close()
		mach := hostsim.HighEndDesktop(env)
		m := NewManager(env, mach, DefaultConfig())
		m.RegisterVirtualDevice(vCodec, "vcodec")
		m.RegisterVirtualDevice(vGPU, "vgpu")
		m.RegisterPhysicalDevice(pCodec, "codec", mach.DRAM)
		m.RegisterPhysicalDevice(pGPU, "gpu", mach.VRAM)
		accs := []Accessor{
			{Virtual: vCodec, Physical: pCodec, Domain: mach.DRAM},
			{Virtual: vGPU, Physical: pGPU, Domain: mach.VRAM},
		}
		r, _ := m.Alloc(4 * hostsim.MiB)
		ok := true
		env.Spawn("writers", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			last := r.version
			for i := 0; i < int(writes); i++ {
				a, err := m.BeginAccess(p, r.ID, accs[rng.Intn(2)], UsageWrite, 0)
				if err != nil {
					ok = false
					return
				}
				_, _ = a.End(p)
				if v := r.version; v != last+1 {
					ok = false
					return
				}
				last = r.version
				p.Sleep(time.Millisecond)
			}
		})
		env.RunUntil(time.Minute)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
