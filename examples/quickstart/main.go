// Quickstart: build a vSoC emulator on a simulated high-end desktop, then
// drive a camera -> ISP -> GPU -> display frame by hand through the SVM
// framework — the Fig. 3 shared-memory interface, virtual command fences,
// and the prefetch coherence protocol, all visible at API level.
package main

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

func main() {
	// A deterministic simulated world: host machine + assembled emulator.
	env := sim.NewEnv(42)
	defer env.Close()
	mach := hostsim.HighEndDesktop(env)
	e := emulator.New(env, mach, emulator.VSoC())

	fmt.Printf("emulator %q on %q, codec hw=%v, SVM protocol=%s\n\n",
		e.Preset.Name, mach.Name, e.CodecIsHardware(), e.Manager.Kind())

	env.Spawn("app", func(p *sim.Proc) {
		// 1. Allocate a shared buffer through the HAL (Fig. 3 interface).
		const frameBytes = 3840 * 2160 * 2 // one UHD camera frame
		h, err := e.HAL.Alloc(p, frameBytes)
		if err != nil {
			panic(err)
		}
		region, _ := e.HAL.RegionOf(h)
		fmt.Printf("t=%-8v allocated region %d (%d MiB) behind handle %d\n",
			p.Now(), region, frameBytes>>20, h)

		// 2. Drive ten frames through the pipeline. Each device op is a
		// guest-driver command; fences order cross-device accesses in the
		// host without blocking the drivers (§3.4).
		for frame := 0; frame < 10; frame++ {
			capture := e.Camera.Submit(p, device.Op{
				Kind: device.OpWrite, Region: region,
				Exec: time.Millisecond, // sensor readout
			})
			convert := e.ISP.Submit(p, device.Op{
				Kind: device.OpRead, Region: region,
				Exec:  e.ISPCost(8.3), // in-GPU colorspace conversion
				After: capture,
			})
			render := e.GPU.Submit(p, device.Op{
				Kind: device.OpRead, Region: region,
				Exec:  e.RenderCost(8.3),
				After: convert,
			})
			done := e.Display.Submit(p, device.Op{
				Kind: device.OpExec, Exec: 200 * time.Microsecond, After: render,
			})
			done.Wait(p)
			fmt.Printf("t=%-8v frame %d presented\n", p.Now().Round(time.Microsecond), frame)
			p.Sleep(16 * time.Millisecond) // the slack prefetch hides under
		}

		// 3. What the SVM framework did underneath.
		st := e.Manager.Stats()
		fmt.Printf("\nSVM internals after 10 frames:\n")
		fmt.Printf("  coherence copies:   %d, mean %.2f ms, all host-direct: %v\n",
			st.CoherenceCost.Count(), st.CoherenceCost.Mean(), st.DirectShare() == 1)
		fmt.Printf("  prefetch hits:      %d arrived early, %d awaited in flight, %d demand fetches\n",
			st.PrefetchHits, st.PrefetchWaits, st.DemandFetches)
		fmt.Printf("  device prediction:  %.0f%% over %d predictions\n",
			st.PredictionAccuracy()*100, st.PredTotal)
		fmt.Printf("  flows discovered:   %d virtual / %d physical hyperedges\n",
			e.Manager.Twin().Virtual.NumEdges(), e.Manager.Twin().Physical.NumEdges())
		fmt.Printf("  fence table:        %d allocs, peak %d/%d slots\n",
			e.Fences.Allocs(), e.Fences.Peak(), e.Fences.Capacity())

		if err := e.HAL.Free(p, h); err != nil {
			panic(err)
		}
	})

	env.RunUntil(2 * time.Second)
	fmt.Println("\ndone.")
}
