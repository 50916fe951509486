// Porting: the §6 exercise — add a brand-new virtual device to vSoC and let
// it enjoy the SVM framework's prefetching and fencing without writing any
// coherence code. Here the new device is an NPU running scene-detection
// inference on camera frames.
//
// Per §6, a ported device must (1) present a handle representation of its
// memory, (2) feed its SVM usage into the twin hypergraphs, (3) attach
// prefetch and fence commands to its accesses, and (4) expose copy paths to
// other devices. The device framework does all four generically: porting is
// registering the node pair and instantiating device.New.
package main

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// Node IDs for the new device — outside the built-in ranges.
const (
	vNPU hypergraph.NodeID = 100
	pNPU hypergraph.NodeID = 100
)

func main() {
	env := sim.NewEnv(4)
	defer env.Close()
	mach := hostsim.HighEndDesktop(env)
	e := emulator.New(env, mach, emulator.VSoC())

	// Step 1-2: declare the virtual NPU and the physical engine backing
	// it (here: a dedicated block on the GPU with host-RAM staging, like
	// NVDEC). This is all the twin hypergraphs need.
	e.Manager.RegisterVirtualDevice(vNPU, "vnpu")
	e.Manager.RegisterPhysicalDevice(pNPU, "npu", mach.DRAM)

	// Step 3-4: instantiate the paravirtual device. Fences, prefetch
	// compensation, flow control, and coherence routing come with the
	// framework; ~zero device-specific SVM code, matching §6's claim that
	// minimal ports are ~150 lines in the real system.
	npu := device.New(env, e.Manager, "npu", vNPU, pNPU, mach.GPU, mach.DRAM,
		e.Fences, device.DefaultConfig())

	const frames = 60
	results := 0
	env.Spawn("scene-detect-app", func(p *sim.Proc) {
		// Camera frames flow into the NPU; detections flow to the GPU for
		// overlay rendering — two new data flows the prefetch engine has
		// never seen and will learn within a couple of frames.
		frameRegion, err := e.Manager.Alloc(3840 * 2160 * 2)
		if err != nil {
			panic(err)
		}
		outRegion, err := e.Manager.Alloc(1 << 20) // detection tensors
		if err != nil {
			panic(err)
		}
		for i := 0; i < frames; i++ {
			cap := e.Camera.Submit(p, device.Op{
				Kind: device.OpWrite, Region: frameRegion.ID, Exec: time.Millisecond,
			})
			infer := npu.Submit(p, device.Op{
				Kind: device.OpRead, Region: frameRegion.ID,
				Exec: 4 * time.Millisecond, After: cap,
			})
			detect := npu.Submit(p, device.Op{
				Kind: device.OpWrite, Region: outRegion.ID,
				Exec: 100 * time.Microsecond, After: infer,
			})
			overlay := e.GPU.Submit(p, device.Op{
				Kind: device.OpRead, Region: outRegion.ID,
				Exec: 500 * time.Microsecond, After: detect,
			})
			overlay.Wait(p)
			results++
			p.Sleep(16 * time.Millisecond)
		}
	})
	env.RunUntil(5 * time.Second)

	st := e.Manager.Stats()
	tw := e.Manager.Twin()
	fmt.Printf("ported NPU processed %d frames\n\n", results)
	fmt.Printf("flows the SVM framework learned (physical layer):\n")
	for _, edge := range tw.Physical.Edges() {
		fmt.Printf("  %s -> %s (%d uses)\n",
			nodeNames(tw, edge.Sources), nodeNames(tw, edge.Dests), edge.Uses)
	}
	fmt.Printf("\nprefetch hits %d | waits %d | demand fetches %d | prediction %.0f%%\n",
		st.PrefetchHits, st.PrefetchWaits, st.DemandFetches, st.PredictionAccuracy()*100)
	fmt.Printf("NPU device stats: %+v\n", npu.Stats())
	fmt.Println("\nthe NPU never touched coherence, fences, or hypergraphs directly —")
	fmt.Println("that is the unified SVM framework doing the §6 porting contract.")
}

func nodeNames(tw *hypergraph.Twin, ids []hypergraph.NodeID) string {
	s := ""
	for i, id := range ids {
		if i > 0 {
			s += "+"
		}
		s += tw.Physical.NodeName(id)
	}
	return s
}
