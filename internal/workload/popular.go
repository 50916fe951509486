package workload

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/guest"
	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/svm"
)

// PopularKind classifies the top-popular-app profiles (§5.5): heavy-3D
// games, UI-centric apps (feeds, messengers — Skia-rendered), and social
// apps with embedded 1080p video.
type PopularKind int

const (
	PopularHeavy3D PopularKind = iota
	PopularUI
	PopularSocialVideo
)

var popularKindNames = map[PopularKind]string{
	PopularHeavy3D:     "heavy-3d",
	PopularUI:          "ui-app",
	PopularSocialVideo: "social-video",
}

func (k PopularKind) String() string { return popularKindNames[k] }

// catFrameLoop is the Category of a heavy-3D or UI app: it has no Table 1
// pipeline; its content comes from its own render loop (startFrameLoop).
const catFrameLoop = -1

// PopularMix returns the top-25 profile mix: 10 heavy-3D games, 9 UI apps,
// 6 social-video apps.
func PopularMix() []PopularKind {
	var mix []PopularKind
	for i := 0; i < 10; i++ {
		mix = append(mix, PopularHeavy3D)
	}
	for i := 0; i < 9; i++ {
		mix = append(mix, PopularUI)
	}
	for i := 0; i < 6; i++ {
		mix = append(mix, PopularSocialVideo)
	}
	return mix
}

// PopularSpec builds the spec for one popular app, which StartEmerging
// runs like any other. A social-video app is the UHD-video pipeline on a
// 1080p30 stream; heavy-3D games and UI apps are frame-loop apps rendering
// into two display-sized surfaces.
func PopularSpec(kind PopularKind, appIndex int, duration time.Duration) Spec {
	s := Spec{
		Name:     fmt.Sprintf("%s-%02d", kind, appIndex),
		Category: catFrameLoop,
		Duration: duration,
		DisplayW: UHDWidth, DisplayH: UHDHeight,
		Buffers: 2, // a frame-loop app double-buffers its display surfaces
		popular: kind,
	}
	switch kind {
	case PopularUI:
		s.UIDirtyFraction = 0.40 + 0.05*float64(appIndex%3) // scrolling feeds
	case PopularSocialVideo:
		// Embedded video player plus a busy UI: the UHD-video pipeline, at
		// its default buffering, on a 1080p30 stream.
		s.Category, s.Buffers = emulator.CatUHDVideo, 0
		s.VideoW, s.VideoH = FHDWidth, FHDHeight
		s.ContentFPS = 30
		s.UIDirtyFraction = 0.30
	}
	s.normalize()
	return s
}

// startFrameLoop runs a vsync-paced app's render loop: content produced by
// the GPU itself (game) or the CPU (Skia UI), composited through SVM display
// buffers (§5.5: SVM is used by Skia and SurfaceFlinger even in ordinary
// apps).
func startFrameLoop(e *emulator.Emulator, spec *Spec, q *guest.BufferQueue, stop time.Duration) {
	period := spec.FramePeriod()
	e.Env.Spawn("app-render-loop", func(rp *sim.Proc) {
		rng := e.Env.Rand()
		for seq := int64(0); rp.Now() < stop; seq++ {
			b := q.Dequeue(rp)
			switch spec.popular {
			case PopularHeavy3D:
				// Game logic on the guest CPU, then GPU draw calls into
				// the surface. Scene complexity varies frame to frame,
				// which is where janks come from.
				jitter := 0.7 + 0.6*rng.Float64()
				e.Machine.CPU.Exec(rp, 2*time.Millisecond)
				// A heavy-3D frame is hundreds of draw calls: the command
				// stream where fence batching beats atomic round trips
				// (§3.4).
				b.Ticket = e.GPU.Submit(rp, device.Op{
					Kind: device.OpWrite, Region: b.Region,
					Exec:     time.Duration(float64(e.GPU3DCost()) * jitter),
					Commands: 250,
				})
			case PopularUI:
				// Skia draws on the CPU into the shared surface; only the
				// damaged region is written and later composited (the
				// Fig. 3 size argument). Scrolling bursts damage much
				// larger areas than idle frames.
				jitter := 0.4 + 1.6*rng.Float64()
				dirty := hostsim.Bytes(float64(spec.UIDirtyBytes()) * jitter)
				if dirty > b.Size {
					dirty = b.Size
				}
				a, err := e.HAL.BeginAccess(rp, b.Handle, svm.UsageWrite, dirty)
				if err != nil {
					return
				}
				e.Machine.CPU.Exec(rp, time.Duration(float64(e.Machine.Perf.UIFrame)*jitter))
				if _, err := a.End(rp); err != nil {
					return
				}
				b.Ticket = device.Ticket{}
				b.Dirty = dirty
			}
			b.Seq = seq
			b.PTS = time.Duration(seq) * period
			q.Queue(b)
		}
	})
}
