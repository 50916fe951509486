package hostsim

import (
	"time"

	"repro/internal/sim"
)

// Pixel6a models the physical mobile device of the §2.3 measurement study:
// a true SoC with unified memory. Every "domain" is a window onto the same
// LPDDR5, so inter-device links run at memory speed with negligible latency
// and there is no virtualization boundary (the Guest domain aliases main
// memory at full speed). It exists so the measurement study (Figs. 4 and 6)
// can include the physical-device series the paper compares against.
func Pixel6a(env *sim.Env) *Machine {
	m := NewMachine(env, "pixel-6a")

	// Unified memory: every device's view — GPU, "guest", camera, NIC —
	// is literally main memory, so cross-device sharing never copies
	// (§2.1). Peripheral transfer time (CSI readout, radio) is part of
	// the devices' execution, not a memory-architecture copy.
	m.VRAM = m.DRAM
	m.Guest = m.DRAM
	m.CamBuf = m.DRAM
	m.NICBuf = m.DRAM

	const unified = 20 * gbps
	m.AddLink(m.DRAM, m.DRAM, "lpddr5", unified, 2*time.Microsecond)

	m.CPU = NewDevice(env, "tensor-cpu", 8)
	m.GPU = NewDevice(env, "mali-g78", 2)
	m.Camera = NewDevice(env, "sony-imx", 1)
	m.NIC = NewDevice(env, "wifi-nic", 1)

	m.CameraLatency = 20 * time.Millisecond
	m.HWDecode = true
	m.Perf = Perf{
		HWDecodePerMP: 450 * time.Microsecond,
		SWDecodePerMP: 4000 * time.Microsecond,
		RenderPerMP:   200 * time.Microsecond,
		ISPGPUPerMP:   100 * time.Microsecond,
		ISPSWPerMP:    2500 * time.Microsecond,
		GPU3DFrame:    10 * time.Millisecond,
		UIFrame:       3 * time.Millisecond,
	}
	return m
}
