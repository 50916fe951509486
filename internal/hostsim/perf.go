package hostsim

import "time"

// Perf is a machine's per-operation cost profile. Costs scale with frame
// area in megapixels, the first-order driver of codec/ISP/render time.
type Perf struct {
	// Codec costs per megapixel of frame area.
	HWDecodePerMP time.Duration // hardware decoder (NVDEC-class, on GPU)
	SWDecodePerMP time.Duration // software decoder on one CPU core

	// RenderPerMP is the GPU cost to sample/composite one frame.
	RenderPerMP time.Duration

	// ISP colorspace-conversion costs (in-GPU shader vs libswscale on CPU).
	ISPGPUPerMP time.Duration
	ISPSWPerMP  time.Duration

	// GPU3DFrame is the GPU cost of one heavy-3D game frame (popular-app
	// workloads, §5.5), independent of display resolution here.
	GPU3DFrame time.Duration

	// UIFrame is the GPU cost of an ordinary UI (Skia) frame.
	UIFrame time.Duration
}

// DecodeCost returns the codec cost for a frame of mp megapixels.
func (p Perf) DecodeCost(mp float64, hw bool) time.Duration {
	if hw {
		return scaleMP(p.HWDecodePerMP, mp)
	}
	return scaleMP(p.SWDecodePerMP, mp)
}

// RenderCost returns the GPU cost to render a frame of mp megapixels.
func (p Perf) RenderCost(mp float64) time.Duration { return scaleMP(p.RenderPerMP, mp) }

// ISPCost returns the colorspace-conversion cost for mp megapixels.
func (p Perf) ISPCost(mp float64, gpu bool) time.Duration {
	if gpu {
		return scaleMP(p.ISPGPUPerMP, mp)
	}
	return scaleMP(p.ISPSWPerMP, mp)
}

func scaleMP(perMP time.Duration, mp float64) time.Duration {
	return time.Duration(float64(perMP) * mp)
}
