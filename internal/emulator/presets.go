package emulator

import (
	"time"

	"repro/internal/device"
	"repro/internal/prefetch"
	"repro/internal/svm"
)

// The presets below encode the architectural differences §5 attributes the
// performance gaps to. Efficiency factors are calibration constants; the
// SVM kind, ordering mode, and device placements are taken from the paper's
// descriptions of each emulator.

// VSoC is the paper's system: unified SVM with the prefetch protocol,
// virtual command fences with MIMD flow control, hardware codec via
// libavcodec + GL interop, in-GPU ISP (YUVConverter), full device set.
func VSoC() Preset {
	return Preset{
		Name: "vSoC",
		SVM: svm.Config{
			Kind:               svm.KindPrefetch,
			AccessBaseCost:     300 * time.Microsecond,
			CoherenceFixedCost: 700 * time.Microsecond,
			Prefetch:           prefetch.DefaultConfig(),
		},
		Ordering:        device.ModeFence,
		UseFlowControl:  true,
		HWDecode:        true,
		ISPInGPU:        true,
		HasCamera:       true,
		GPUCostFactor:   1.0, // inherits Trinity's high-performance virtual GPU
		CodecCostFactor: 1.0,
		ISPCostFactor:   1.0,
		EmergingCompat:  [NumCategories]int{10, 10, 10, 9, 9}, // 48 of 50
		PopularCompat:   25,
	}
}

// VSoCNoPrefetch is the §5.4 ablation: the prefetch engine replaced by the
// classic write-invalidate protocol. Coherence needs synchronous guest-host
// execution, so SVM operations fall back to atomic ordering.
func VSoCNoPrefetch() Preset {
	p := VSoC()
	p.Name = "vSoC-noprefetch"
	p.SVM.Kind = svm.KindWriteInvalidate
	p.Ordering = device.ModeAtomic
	return p
}

// VSoCNoFence is the §5.4 ablation: virtual command fences replaced by
// commonly-adopted atomic operations; the prefetch protocol stays.
func VSoCNoFence() Preset {
	p := VSoC()
	p.Name = "vSoC-nofence"
	p.Ordering = device.ModeAtomic
	p.UseFlowControl = false
	return p
}

// GAE models Google Android Emulator: guest-memory SVM with atomic
// ordering, an inefficient CPU-bound video decoder (§5.3's thermal
// observation), in-GPU YUV conversion, full device support, and the heaviest
// per-access API cost of the measured emulators (Table 2: 0.76 ms).
func GAE() Preset {
	return Preset{
		Name: "GAE",
		SVM: svm.Config{
			Kind:               svm.KindGuestSync,
			AccessBaseCost:     760 * time.Microsecond,
			CoherenceFixedCost: 900 * time.Microsecond,
		},
		Ordering:           device.ModeAtomic,
		HWDecode:           false, // software decoder despite capable hardware
		HostSideCodec:      true,  // goldfish-style host-process decoder
		ISPInGPU:           true,
		HasCamera:          true,
		CameraFPSCap:       30,
		CameraStackLatency: 40 * time.Millisecond,
		GPUCostFactor:      2.0, // ANGLE translation overhead on heavy GL

		CodecCostFactor: 1.15,
		ISPCostFactor:   1.0,
		EmergingCompat:  [NumCategories]int{10, 10, 9, 9, 9}, // 47 of 50
		PopularCompat:   21,
	}
}

// QEMUKVM models stock QEMU with KVM: guest-memory SVM (cheapest page-mapped
// CPU access, Table 2: 0.22 ms), software codec, software swscale ISP,
// virgl-class GPU efficiency.
func QEMUKVM() Preset {
	return Preset{
		Name: "QEMU-KVM",
		SVM: svm.Config{
			Kind:               svm.KindGuestSync,
			AccessBaseCost:     220 * time.Microsecond,
			CoherenceFixedCost: 400 * time.Microsecond,
		},
		Ordering:           device.ModeAtomic,
		HWDecode:           false,
		ISPInGPU:           false,
		HasCamera:          true,
		CameraFPSCap:       30,
		CameraStackLatency: 50 * time.Millisecond,
		GPUCostFactor:      1.2,
		CodecCostFactor:    2.2, // generic guest-built decoder, no host SIMD tuning
		ISPCostFactor:      1.0,
		EmergingCompat:     [NumCategories]int{9, 9, 8, 8, 8}, // 42 of 50
		PopularCompat:      17,
	}
}

// LDPlayer models the gaming-oriented commercial emulator: decent GPU path,
// guest-backed SVM with high fixed coherence overhead, software codec.
func LDPlayer() Preset {
	return Preset{
		Name: "LDPlayer",
		SVM: svm.Config{
			Kind:               svm.KindGuestSync,
			AccessBaseCost:     900 * time.Microsecond,
			CoherenceFixedCost: 1200 * time.Microsecond,
		},
		Ordering:           device.ModeAtomic,
		HWDecode:           false,
		ISPInGPU:           false,
		HasCamera:          true,
		CameraFPSCap:       30,
		CameraStackLatency: 70 * time.Millisecond,
		GPUCostFactor:      1.25,
		CodecCostFactor:    3.0, // video path an afterthought in gaming emulators
		ISPCostFactor:      1.2,
		EmergingCompat:     [NumCategories]int{9, 9, 9, 8, 8}, // 43 of 50
		PopularCompat:      25,
	}
}

// Bluestacks models the other commercial emulator; §5.3 observes seconds-
// long video freezes on it, which the high coherence and codec costs here
// reproduce.
func Bluestacks() Preset {
	return Preset{
		Name: "Bluestacks",
		SVM: svm.Config{
			Kind:               svm.KindGuestSync,
			AccessBaseCost:     1100 * time.Microsecond,
			CoherenceFixedCost: 1500 * time.Microsecond,
		},
		Ordering:           device.ModeAtomic,
		HWDecode:           false,
		HostSideCodec:      true,
		ISPInGPU:           false,
		HasCamera:          true,
		CameraFPSCap:       30,
		CameraStackLatency: 70 * time.Millisecond,
		GPUCostFactor:      1.15,
		CodecCostFactor:    5.5, // host-side but poorly optimized decode path
		ISPCostFactor:      1.3,
		EmergingCompat:     [NumCategories]int{9, 9, 9, 9, 8}, // 44 of 50
		PopularCompat:      24,
	}
}

// Trinity models the OSDI '22 emulator: superb GPU projection (async
// command queues, modeled as fence ordering without the SVM framework), but
// only a software codec inherited from Android-x86 running under binary
// translation, no camera, and no encoder (§5.3).
func Trinity() Preset {
	return Preset{
		Name: "Trinity",
		SVM: svm.Config{
			Kind:               svm.KindGuestSync,
			AccessBaseCost:     500 * time.Microsecond,
			CoherenceFixedCost: 600 * time.Microsecond,
		},
		Ordering:        device.ModeFence,
		UseFlowControl:  true,
		HWDecode:        false,
		ISPInGPU:        false,
		HasCamera:       false,
		GPUCostFactor:   1.05,
		CodecCostFactor: 7.0, // guest ARM codec paths under binary translation
		ISPCostFactor:   1.5,
		EmergingCompat:  [NumCategories]int{10, 10, 0, 0, 0}, // 20 of 50
		PopularCompat:   24,
	}
}

// NativeDevice models running directly on a physical mobile SoC (the
// measurement study's Google Pixel 6a, §2.3): unified memory means the
// "coherence protocol" never copies (every flow is same-domain on a unified
// machine), device placements are all hardware, and API costs are the HAL's
// own (no virtualization transport).
func NativeDevice() Preset {
	return Preset{
		Name: "native",
		SVM: svm.Config{
			Kind:               svm.KindPrefetch,
			AccessBaseCost:     50 * time.Microsecond,
			CoherenceFixedCost: 100 * time.Microsecond,
			Prefetch:           prefetch.DefaultConfig(),
		},
		Ordering:        device.ModeFence,
		UseFlowControl:  true,
		HWDecode:        true,
		ISPInGPU:        true,
		HasCamera:       true,
		GPUCostFactor:   1.0,
		CodecCostFactor: 1.0,
		ISPCostFactor:   1.0,
		EmergingCompat:  [NumCategories]int{10, 10, 10, 10, 10},
		PopularCompat:   25,
	}
}

// Mainstream returns the five baseline presets in the paper's order.
func Mainstream() []Preset {
	return []Preset{GAE(), QEMUKVM(), LDPlayer(), Bluestacks(), Trinity()}
}

// All returns vSoC followed by the five baselines.
func All() []Preset {
	return append([]Preset{VSoC()}, Mainstream()...)
}
