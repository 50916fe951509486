package hostsim

import (
	"time"

	"repro/internal/sim"
)

// The preset constants below are the calibration surface of the whole
// reproduction. They are chosen so that the *architectural* quantities the
// paper measures come out in the right regime:
//
//   - a UHD frame (15.8 MiB) crossing the virtualization boundary costs
//     ~6-7 ms, matching the GAE/QEMU coherence costs of Fig. 5 / Table 2;
//   - the same frame over PCIe DMA costs ~1.4 ms, so vSoC's direct
//     device-to-device coherence lands near Table 2's 2.38 ms average;
//   - software UHD decode takes ~20-27 ms per frame (sub-60-FPS on its
//     own), hardware decode ~3 ms;
//   - the laptop throttles after roughly a minute of saturated CPU,
//     reproducing the §5.3 GAE degradation from ~30 to ~10 FPS.

const (
	gbps = 1 << 30 // one GiB/s in bytes/second
	mbps = 1 << 20 // one MiB/s in bytes/second
)

// HighEndDesktop models the paper's 24-core i9-13900K + DDR5 + RTX 3060 +
// USB UHD camera machine (§5.1).
func HighEndDesktop(env *sim.Env) *Machine {
	m := NewMachine(env, "high-end-desktop")

	// Intra-DRAM memcpy.
	m.AddLink(m.DRAM, m.DRAM, "memcpy", 16*gbps, 2*time.Microsecond)
	// Virtualization boundary: scatter-gather over non-contiguous guest
	// pages plus transport overhead (§2.2). Dominates modular coherence.
	m.AddDuplexLink(m.DRAM, m.Guest, "vm-boundary", 2.4*gbps, 60*time.Microsecond)
	// Guest-internal copies (guest kernel memcpy) are ordinary DRAM speed.
	m.AddLink(m.Guest, m.Guest, "guest-memcpy", 14*gbps, 2*time.Microsecond)
	// PCIe 4.0 x16 to the discrete GPU. DMA reaches near-line-rate, but
	// synchronous driver-staged uploads (blocking glTexSubImage-style)
	// crawl at ~1 GiB/s — the gap behind Fig. 16's 40 ms demand fetches.
	m.AddLink(m.DRAM, m.VRAM, "pcie-h2d", 11*gbps, 25*time.Microsecond).SyncBandwidth = 1.1 * gbps
	m.AddLink(m.VRAM, m.DRAM, "pcie-d2h", 10*gbps, 25*time.Microsecond).SyncBandwidth = 1.0 * gbps
	// In-VRAM blit: effectively free relative to everything else.
	m.AddLink(m.VRAM, m.VRAM, "vram-blit", 180*gbps, 5*time.Microsecond)
	// USB camera into host memory.
	m.AddLink(m.CamBuf, m.DRAM, "usb-cam", 2.5*gbps, 100*time.Microsecond)
	// Gigabit NIC.
	m.AddDuplexLink(m.NICBuf, m.DRAM, "gige", 118*mbps, 200*time.Microsecond)

	m.CPU = NewDevice(env, "i9-13900K", 16)
	m.GPU = NewDevice(env, "RTX-3060", 2)
	m.Camera = NewDevice(env, "hikvision-v148", 1)
	m.NIC = NewDevice(env, "gige-nic", 1)

	m.CameraLatency = 25 * time.Millisecond
	m.HWDecode = true
	m.Perf = Perf{
		HWDecodePerMP: 350 * time.Microsecond,
		SWDecodePerMP: 2400 * time.Microsecond,
		RenderPerMP:   120 * time.Microsecond,
		ISPGPUPerMP:   80 * time.Microsecond,
		ISPSWPerMP:    1500 * time.Microsecond,
		GPU3DFrame:    6 * time.Millisecond,
		UIFrame:       2 * time.Millisecond,
	}
	return m
}

// MidEndLaptop models the paper's 6-core i7-10750H + GTX 1660 Ti +
// integrated-camera laptop (§5.1), including thermal throttling.
func MidEndLaptop(env *sim.Env) *Machine {
	m := NewMachine(env, "mid-end-laptop")

	m.AddLink(m.DRAM, m.DRAM, "memcpy", 10*gbps, 3*time.Microsecond)
	m.AddDuplexLink(m.DRAM, m.Guest, "vm-boundary", 1.5*gbps, 80*time.Microsecond)
	m.AddLink(m.Guest, m.Guest, "guest-memcpy", 9*gbps, 3*time.Microsecond)
	m.AddLink(m.DRAM, m.VRAM, "pcie-h2d", 8*gbps, 30*time.Microsecond).SyncBandwidth = 0.8 * gbps
	m.AddLink(m.VRAM, m.DRAM, "pcie-d2h", 7*gbps, 30*time.Microsecond).SyncBandwidth = 0.7 * gbps
	m.AddLink(m.VRAM, m.VRAM, "vram-blit", 120*gbps, 6*time.Microsecond)
	m.AddLink(m.CamBuf, m.DRAM, "int-cam", 2*gbps, 80*time.Microsecond)
	m.AddDuplexLink(m.NICBuf, m.DRAM, "gige", 118*mbps, 250*time.Microsecond)

	m.CPU = NewDevice(env, "i7-10750H", 6)
	m.GPU = NewDevice(env, "GTX-1660Ti", 2)
	m.Camera = NewDevice(env, "integrated-cam", 1)
	m.NIC = NewDevice(env, "gige-nic", 1)

	// Integrated camera: ~10 ms lower capture latency than the desktop's
	// USB camera (§5.3, DirectShow measurement).
	m.CameraLatency = 15 * time.Millisecond
	m.HWDecode = true
	m.Perf = Perf{
		HWDecodePerMP: 500 * time.Microsecond,
		SWDecodePerMP: 3200 * time.Microsecond,
		RenderPerMP:   180 * time.Microsecond,
		ISPGPUPerMP:   120 * time.Microsecond,
		ISPSWPerMP:    2000 * time.Microsecond,
		GPU3DFrame:    9 * time.Millisecond,
		UIFrame:       3 * time.Millisecond,
	}

	// Thermal envelope: saturating ~1.3 busy-cores heats ~0.8 °C/s net,
	// reaching the throttle point from ambient in about a minute.
	th := NewThermal(env, 100*time.Millisecond)
	th.HeatPerBusySecond = 1.0
	th.CoolPerSecond = 0.5
	th.Ambient = 40
	th.ThrottleAt = 88
	th.ResumeAt = 78
	th.ThrottledSpeed = 0.4
	m.Thermal = th
	m.CPU.SetThermal(th)
	return m
}
