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

// PopularSpec builds the spec for one popular app.
func PopularSpec(kind PopularKind, appIndex int, duration time.Duration) Spec {
	s := Spec{
		Name:     fmt.Sprintf("%s-%02d", kind, appIndex),
		Category: -1,
		Duration: duration,
		DisplayW: UHDWidth, DisplayH: UHDHeight,
	}
	switch kind {
	case PopularHeavy3D:
		s.UIDirtyFraction = 0.05 // HUD only
	case PopularUI:
		s.UIDirtyFraction = 0.40 + 0.05*float64(appIndex%3) // scrolling feeds
	case PopularSocialVideo:
		s.VideoW, s.VideoH = FHDWidth, FHDHeight
		s.ContentFPS = 30
		s.UIDirtyFraction = 0.30
	}
	s.normalize()
	if kind != PopularSocialVideo {
		s.ContentFPS = 60
		s.StaleTolerance = time.Second / 60
	}
	return s
}

// RunPopular runs one popular app on an assembled emulator.
func RunPopular(e *emulator.Emulator, kind PopularKind, spec Spec) (*Result, error) {
	spec.normalize()
	switch kind {
	case PopularSocialVideo:
		// Embedded video player plus a busy UI: the video pipeline with a
		// 1080p30 stream.
		return RunEmerging(e, withCategory(spec, emulator.CatUHDVideo))
	case PopularHeavy3D, PopularUI:
		return runFrameLoopApp(e, kind, spec)
	}
	return nil, fmt.Errorf("workload: unknown popular kind %d", kind)
}

func withCategory(s Spec, cat int) Spec {
	s.Category = cat
	return s
}

// runFrameLoopApp drives a vsync-paced app whose content is produced by the
// GPU itself (game render loop) or the CPU (Skia UI), composited through
// SVM display buffers (§5.5: SVM is used by Skia and SurfaceFlinger even in
// ordinary apps).
func runFrameLoopApp(e *emulator.Emulator, kind PopularKind, spec Spec) (*Result, error) {
	stop := e.Env.Now() + spec.Duration
	var s *sink
	var setupErr error
	e.Env.Spawn("app-main", func(p *sim.Proc) {
		// Double-buffered display surfaces the app renders into.
		q, err := guest.NewBufferQueue(p, e.HAL, 2, spec.DisplayFrameBytes())
		if err != nil {
			setupErr = err
			return
		}
		// The status-bar/HUD overlay is small next to the app surface.
		overlaySpec := spec
		overlaySpec.UIDirtyFraction = 0.08
		ui, err := newUIOverlay(p, e, &overlaySpec, stop)
		if err != nil {
			setupErr = err
			return
		}
		period := spec.FramePeriod()
		// Producer: the app's render loop.
		e.Env.Spawn("app-render-loop", func(rp *sim.Proc) {
			rng := e.Env.Rand()
			for seq := int64(0); rp.Now() < stop; seq++ {
				b := q.Dequeue(rp)
				switch kind {
				case PopularHeavy3D:
					// Game logic on the guest CPU, then GPU draw calls
					// into the surface. Scene complexity varies frame to
					// frame, which is where janks come from.
					jitter := 0.7 + 0.6*rng.Float64()
					e.Machine.CPU.Exec(rp, 2*time.Millisecond)
					// A heavy-3D frame is hundreds of draw calls: the
					// command stream where fence batching beats atomic
					// round trips (§3.4).
					b.Ticket = e.GPU.Submit(rp, device.Op{
						Kind: device.OpWrite, Region: b.Region,
						Exec:     time.Duration(float64(e.GPU3DCost()) * jitter),
						Commands: 250,
					})
				case PopularUI:
					// Skia draws on the CPU into the shared surface;
					// only the damaged region is written and later
					// composited (the Fig. 3 size argument). Scrolling
					// bursts damage much larger areas than idle frames.
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
				q.Queue(rp, b)
			}
		})
		s = &sink{
			e:    e,
			spec: &spec,
			q:    q,
			ui:   ui,
			stop: stop,
			renderExec: func() time.Duration {
				// SurfaceFlinger composition of the app surface.
				return e.RenderCost(MPixels(spec.DisplayW, spec.DisplayH) / 4)
			},
		}
		// Games and UI apps self-pace: the compositor latches the newest
		// frame rather than enforcing media timestamps.
		s.run(p)
	})
	e.Env.RunUntil(stop)
	if setupErr != nil {
		return nil, setupErr
	}
	r := s.result(e, &spec)
	r.App = spec.Name
	return r, nil
}
