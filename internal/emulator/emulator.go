// Package emulator assembles complete mobile-emulator instances: an SVM
// manager with a coherence protocol, the common virtual device set (GPU,
// display, ISP, codec, camera, modem, NIC), the guest VSync clock, and the
// HAL shared-memory module — wired to a host machine.
//
// Presets encode the architectures the paper evaluates (§5.1): vSoC and its
// two ablations, plus Google Android Emulator-, QEMU-KVM-, LDPlayer-,
// Bluestacks-, and Trinity-like baselines. The presets differ in SVM
// architecture (unified vs guest-backed), coherence protocol, access
// ordering, codec placement (hardware vs software), ISP placement, device
// support, and per-operation efficiency — the differences the paper
// attributes the performance gaps to.
//
// An instance is fully determined by (preset, machine constructor, seed):
// every run replays byte-identically, which is what lets the experiment
// harness compare presets cell by cell.
package emulator

import (
	"time"

	"repro/internal/device"
	"repro/internal/fence"
	"repro/internal/guest"
	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/virtio"
)

// Categories of emerging apps (Table 1), indexing EmergingCompat.
const (
	CatUHDVideo = iota
	Cat360Video
	CatCamera
	CatAR
	CatLivestream
	NumCategories
)

// CategoryNames are the Table 1 category labels.
var CategoryNames = [NumCategories]string{
	"UHD Video", "360 Video", "Camera", "AR", "Livestream",
}

// Preset describes one emulator architecture.
type Preset struct {
	Name string

	// SVM architecture.
	SVM svm.Config
	// Ordering selects the access-ordering paradigm (§3.4); fence mode
	// also paces dispatch with MIMD flow control.
	Ordering device.OrderingMode

	// Device capabilities.
	HWDecode bool // virtual codec uses the host's hardware decoder
	// HostSideCodec marks software decoding in the emulator process (host
	// CPU + host RAM) rather than inside the guest.
	HostSideCodec bool
	ISPInGPU      bool // colorspace conversion as a GPU shader vs CPU swscale
	HasCamera     bool // Trinity lacks cameras (§5.3)

	// Efficiency multipliers on device execution costs (1.0 = native).
	GPUCostFactor   float64
	CodecCostFactor float64
	ISPCostFactor   float64

	// DeviceWatchdog, when nonzero, bounds how long host executors wait on
	// a wait fence before proceeding (GPU-hang recovery). Robustness runs
	// set it so an injected device stall surfaces as counted fence
	// timeouts; the evaluation presets leave it zero (wait forever).
	DeviceWatchdog time.Duration

	// Batch enables the adaptive notification-batching layer (doorbell
	// suppression, IRQ coalescing, coherence push batching; DESIGN.md §9)
	// on every transport and on the SVM manager. All evaluation presets
	// leave it zero so their outputs match the pre-batching emulator byte
	// for byte; the batching sweep turns it on explicitly.
	Batch virtio.BatchConfig

	// Fetch enables chunked, DMA-promoted demand fetches on the SVM manager
	// (DESIGN.md §11). All evaluation presets leave it zero — demand fetches
	// stay on the monolithic synchronous path, byte-identical to the
	// pre-chunking emulator; the fetchpipe sweep turns it on explicitly.
	Fetch hostsim.FetchConfig

	// CameraFPSCap bounds the virtual camera's delivery rate; host webcam
	// passthrough stacks commonly negotiate UHD at 30 FPS, while vSoC's
	// paravirtual camera streams the sensor's full 60 FPS (§5.1's UHD60
	// camera). Zero means uncapped.
	CameraFPSCap int
	// CameraStackLatency is extra per-frame delay added by the host
	// capture stack (DirectShow/MediaFoundation graphs buffer several
	// frames in passthrough designs; vSoC's libavdevice path is direct).
	CameraStackLatency time.Duration

	// Compatibility: how many of each emerging category's 10 apps run
	// (§5.3), and how many of the top-25 popular apps run (§5.5).
	EmergingCompat [NumCategories]int
	PopularCompat  int
}

// Emulator is one assembled instance running on a machine.
type Emulator struct {
	Preset  Preset
	Env     *sim.Env
	Machine *hostsim.Machine
	Manager *svm.Manager
	HAL     *svm.Module
	Fences  *fence.Table
	VSync   *guest.VSync
	// Transport is the dynamic cost multiplier shared by every virtio ring
	// and IRQ line of this instance; the fault layer drives it to inject
	// kick/IRQ latency spikes.
	Transport *virtio.CostScale

	GPU     *device.Device
	Display *device.Device
	ISP     *device.Device
	Codec   *device.Device
	Camera  *device.Device
	Modem   *device.Device
	NIC     *device.Device

	// FrameObs, when non-nil, receives per-frame presentation telemetry
	// from the workload sink (presents, drops, motion-to-photon). The
	// fleet QoS layer (internal/fleetobs) implements it; the nil path is
	// one branch per frame, and observers must not perturb the simulation.
	FrameObs FrameObserver
}

// FrameObserver is the per-guest frame telemetry hook. All instants are
// virtual time; callbacks run inside the guest's own environment, so a
// per-guest observer needs no locking.
type FrameObserver interface {
	// FramePresented reports a frame reaching the display at instant at.
	FramePresented(at time.Duration)
	// FrameDropped reports a frame discarded stale or past deadline.
	FrameDropped(at time.Duration)
	// MotionToPhoton reports a measured source-to-display latency.
	MotionToPhoton(at, latency time.Duration)
}

// VSyncPeriod is the guest display refresh period (60 Hz).
const VSyncPeriod = time.Second / 60

// New assembles an emulator from a preset on the given machine.
func New(env *sim.Env, mach *hostsim.Machine, p Preset) *Emulator {
	p.SVM.Batch = p.Batch
	p.SVM.Fetch = p.Fetch
	mgr := svm.NewManager(env, mach, p.SVM)
	for id, name := range virtualNames {
		mgr.RegisterVirtualDevice(id, name)
	}
	cpuDomain := mach.DRAM
	if p.SVM.Kind == svm.KindGuestSync {
		cpuDomain = mach.Guest
	}
	mgr.RegisterPhysicalDevice(PCPU, physicalNames[PCPU], cpuDomain)
	mgr.RegisterPhysicalDevice(PGPU, physicalNames[PGPU], mach.VRAM)
	mgr.RegisterPhysicalDevice(PCamera, physicalNames[PCamera], mach.CamBuf)
	mgr.RegisterPhysicalDevice(PNIC, physicalNames[PNIC], mach.NICBuf)
	mgr.RegisterPhysicalDevice(PNVDEC, physicalNames[PNVDEC], mach.DRAM)
	mgr.RegisterPhysicalDevice(PCodecHost, physicalNames[PCodecHost], mach.DRAM)

	ftab := fence.NewTable(env)
	scale := virtio.NewCostScale()
	dcfg := device.DefaultConfig()
	dcfg.Mode = p.Ordering
	dcfg.WatchdogTimeout = p.DeviceWatchdog
	dcfg.Transport.Scale = scale
	dcfg.Transport.Batch = p.Batch

	e := &Emulator{
		Preset:    p,
		Env:       env,
		Machine:   mach,
		Manager:   mgr,
		Fences:    ftab,
		VSync:     guest.NewVSync(env, VSyncPeriod),
		Transport: scale,
	}
	e.HAL = svm.NewModule(mgr, svm.Accessor{
		Virtual: VCPU, Physical: PCPU, Domain: cpuDomain, Name: "cpu",
	})

	mk := func(name string, vid, pid hypergraph.NodeID, host *hostsim.Device, dom *hostsim.Domain) *device.Device {
		return device.New(env, mgr, name, vid, pid, host, dom, ftab, dcfg)
	}
	e.GPU = mk("gpu", VGPU, PGPU, mach.GPU, mach.VRAM)
	// Virtual displays are windows managed by the host GPU (§3.2).
	e.Display = mk("display", VDisplay, PGPU, mach.GPU, mach.VRAM)
	if p.ISPInGPU {
		e.ISP = mk("isp", VISP, PGPU, mach.GPU, mach.VRAM)
	} else {
		e.ISP = mk("isp", VISP, PCPU, mach.CPU, cpuDomain)
	}
	switch {
	case p.HWDecode && mach.HWDecode:
		// NVDEC-class engine driven through libavcodec: decode runs on
		// the GPU's codec block but frames stage in host RAM (§4) — the
		// DRAM->VRAM flow the prefetch engine hides.
		e.Codec = mk("codec", VCodec, PNVDEC, mach.GPU, mach.DRAM)
	case p.HostSideCodec:
		// Emulator-process software decoder (goldfish-style): host CPU,
		// host RAM output, then a guest push for guest-backed SVM.
		e.Codec = mk("codec", VCodec, PCodecHost, mach.CPU, mach.DRAM)
	default:
		// Guest software decode: output lands directly in guest pages.
		e.Codec = mk("codec", VCodec, PCPU, mach.CPU, cpuDomain)
	}
	if p.HasCamera {
		e.Camera = mk("camera", VCamera, PCamera, mach.Camera, mach.CamBuf)
	}
	e.Modem = mk("modem", VModem, PCPU, mach.CPU, cpuDomain)
	e.NIC = mk("nic", VNIC, PNIC, mach.NIC, mach.NICBuf)
	return e
}

// Devices returns the instance's virtual devices in a fixed order,
// skipping absent ones (Trinity has no camera).
func (e *Emulator) Devices() []*device.Device {
	all := []*device.Device{e.GPU, e.Display, e.ISP, e.Codec, e.Camera, e.Modem, e.NIC}
	out := all[:0]
	for _, d := range all {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// CodecIsHardware reports whether decode runs on the GPU's codec engine.
func (e *Emulator) CodecIsHardware() bool { return e.Codec.HostDevice() == e.Machine.GPU }

// DecodeCost returns the codec execution cost for a frame of mp megapixels,
// applying the preset's efficiency factor.
func (e *Emulator) DecodeCost(mp float64) time.Duration {
	c := e.Machine.Perf.DecodeCost(mp, e.CodecIsHardware())
	return time.Duration(float64(c) * e.Preset.CodecCostFactor)
}

// RenderCost returns the GPU cost to render mp megapixels.
func (e *Emulator) RenderCost(mp float64) time.Duration {
	c := e.Machine.Perf.RenderCost(mp)
	return time.Duration(float64(c) * e.Preset.GPUCostFactor)
}

// ISPCost returns the colorspace conversion cost for mp megapixels.
func (e *Emulator) ISPCost(mp float64) time.Duration {
	c := e.Machine.Perf.ISPCost(mp, e.Preset.ISPInGPU)
	return time.Duration(float64(c) * e.Preset.ISPCostFactor)
}

// GPU3DCost returns the heavy-3D frame cost (popular-app workloads).
func (e *Emulator) GPU3DCost() time.Duration {
	return time.Duration(float64(e.Machine.Perf.GPU3DFrame) * e.Preset.GPUCostFactor)
}
