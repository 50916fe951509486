package workload

import (
	"math"
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/guest"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/svm"
)

// uiOverlay is the app's UI layer: a display-sized SVM buffer redrawn by
// the guest CPU and composited by the GPU every frame. UI layers are why
// popular apps also benefit from SVM improvements (§5.5: Skia).
type uiOverlay struct {
	region svm.RegionID
	dirty  hostsim.Bytes
	mp     float64 // dirty megapixels
}

// newUIOverlay allocates the overlay and starts the guest UI thread, which
// redraws the dirtyFraction share of it each frame period (0 disables the
// overlay).
func newUIOverlay(p *sim.Proc, e *emulator.Emulator, spec *Spec, dirtyFraction float64, stop time.Duration) (*uiOverlay, error) {
	if dirtyFraction <= 0 {
		return nil, nil
	}
	h, err := e.HAL.Alloc(p, spec.DisplayFrameBytes())
	if err != nil {
		return nil, err
	}
	region, err := e.HAL.RegionOf(h)
	if err != nil {
		return nil, err
	}
	ui := &uiOverlay{
		region: region,
		dirty:  hostsim.Bytes(float64(spec.DisplayFrameBytes()) * dirtyFraction),
		mp:     MPixels(spec.DisplayW, spec.DisplayH) * dirtyFraction,
	}
	period := spec.FramePeriod()
	drawCost := time.Duration(float64(e.Machine.Perf.UIFrame) * dirtyFraction * 2)
	p.Env().Spawn("ui-thread", func(up *sim.Proc) {
		for up.Now() < stop {
			a, err := e.HAL.BeginAccess(up, h, svm.UsageWrite, ui.dirty)
			if err != nil {
				return
			}
			e.Machine.CPU.Exec(up, drawCost)
			if _, err := a.End(up); err != nil {
				return
			}
			up.Sleep(period)
		}
	})
	return ui, nil
}

// sink is the consumer end of every pipeline: a SurfaceFlinger-style
// renderer that latches one frame per iteration, composites the UI overlay,
// and presents through the display device. Two latch policies share
// everything after the latch:
//
//   - strict PTS (MediaCodec video, §5.4): pace each frame to its
//     presentation timestamp; discard it unrendered when it is stale, or
//     after rendering when it misses its presentation deadline;
//   - latest wins (camera/AR/livestream compositors, games, UI apps):
//     drain the queue to the newest frame, latch it at the next refresh
//     and present it however late (latency shows up in motion-to-photon
//     instead of drops).
type sink struct {
	e    *emulator.Emulator
	spec *Spec
	q    *guest.BufferQueue
	ui   *uiOverlay
	stop time.Duration

	// renderExec computes the GPU cost of rendering one content frame.
	renderExec func() time.Duration
	// cpuPerFrame is extra guest CPU work per frame (AR tracking).
	cpuPerFrame time.Duration
	// appWork returns the frame's app-side CPU cost (UI logic, danmaku,
	// audio mixing) — jittered, so near-budget pipelines drop occasional
	// frames the way real apps jank.
	appWork func() time.Duration
	// measureLatency enables motion-to-photon recording from SourceTime.
	measureLatency bool
	// strictPTS selects the strict-PTS latch policy; otherwise latest
	// wins.
	strictPTS bool

	fps metrics.FPSCounter
	lat metrics.Distribution

	// staleDrops were discarded unrendered; deadlineDrops rendered but
	// missed the presentation window.
	staleDrops    int
	deadlineDrops int

	// shown holds the frames whose display op is in flight, oldest first.
	// One executor drains the display ring in order, so the ops complete
	// in submission order, and displayed, bound once to s.display, takes
	// the oldest.
	shown     *sim.Queue[shownFrame]
	displayed func(at time.Duration)
}

// shownFrame is one frame submitted to the display: its presentation
// deadline, its source time and its profiler node.
type shownFrame struct {
	deadline, src time.Duration
	node          *prof.Node
}

// noDeadline is the latest-wins policy's presentation deadline: every
// latched frame presents.
const noDeadline = time.Duration(math.MaxInt64)

func (s *sink) run(p *sim.Proc) {
	s.shown, s.displayed = sim.NewQueue[shownFrame](p.Env()), s.display
	period := s.spec.FramePeriod()
	tol := s.spec.StaleTolerance
	pf := s.e.Env.Profiler()
	var anchor time.Duration = -1
	for p.Now() < s.stop {
		var frame *prof.Node
		if pf != nil {
			frame = pf.NewNode("frame", "app")
			pf.Bind(p, frame)
		}
		acqStart := p.Now()
		b := s.q.Acquire(p)
		if pf != nil {
			pf.Wait(p, "buffer:acquire", acqStart, b.Ticket.ProfNode())
		}
		deadline := noDeadline
		if s.strictPTS {
			backlog := s.q.FilledCount()
			if anchor < 0 {
				anchor = p.Now() - b.PTS
			}
			sched := anchor + b.PTS
			if late := p.Now() - sched; late > 0 && backlog == 0 {
				// Producer-limited playback: the frame arrived behind the
				// media clock with nothing queued behind it. The player
				// re-anchors to the arrival rate instead of discarding
				// everything (slow-but-shown, §5.3's GAE behaviour).
				anchor = p.Now() - b.PTS
				sched = p.Now()
			} else if late > tol {
				// Renderer-limited backlog: discard the stale frame
				// without rendering (releaseOutputBuffer(render=false)).
				s.drop(p.Now(), true)
				s.q.Release(b)
				continue
			}
			if wait := sched - p.Now(); wait > 0 {
				paceStart := p.Now()
				p.Sleep(wait)
				if pf != nil {
					// Intentional idle: waiting for the frame's PTS slot,
					// not a component at fault.
					pf.Charge(p, "pacing", paceStart)
				}
			}
			deadline = sched + period + tol
		} else {
			// Drop every older frame unrendered, then latch the newest at
			// the next refresh.
			for {
				nb, ok := s.q.TryAcquire()
				if !ok {
					break
				}
				s.drop(p.Now(), true)
				s.q.Release(b)
				b = nb
			}
			vsStart := p.Now()
			s.e.VSync.Wait(p)
			if pf != nil {
				pf.Wait(p, "vsync:wait", vsStart, nil)
			}
		}
		if s.cpuPerFrame > 0 {
			s.e.Machine.CPU.Exec(p, s.cpuPerFrame)
		}
		if s.appWork != nil {
			s.e.Machine.CPU.Exec(p, s.appWork())
		}

		// Sample the content frame as a texture (the read that triggers
		// coherence maintenance, §5.4), then composite the UI overlay.
		last := s.e.GPU.Submit(p, device.Op{
			Kind: device.OpRead, Region: b.Region, Bytes: b.Dirty,
			Exec: s.renderExec(), After: b.Ticket,
			Commands: 30, // texture bind + draw + swap command stream
		})
		if s.ui != nil {
			last = s.e.GPU.Submit(p, device.Op{
				Kind: device.OpRead, Region: s.ui.region, Bytes: s.ui.dirty,
				Exec: s.e.RenderCost(s.ui.mp), After: last, Commands: 20,
			})
		}
		s.shown.Put(shownFrame{deadline: deadline, src: b.SourceTime, node: frame})
		s.e.Display.Submit(p, device.Op{
			Kind: device.OpExec, Exec: 200 * time.Microsecond, After: last, Commands: 4,
			OnComplete: s.displayed,
		})
		// The buffer may be reused once the GPU has sampled it.
		readyStart := p.Now()
		last.Wait(p)
		if pf != nil {
			pf.Wait(p, "ready:wait", readyStart, last.ProfNode())
		}
		s.q.Release(b)
	}
	pf.Bind(p, nil)
}

// display completes the oldest frame in flight at virtual time at: it
// presents the frame, or drops it when it missed its presentation window.
func (s *sink) display(at time.Duration) {
	f, _ := s.shown.TryGet()
	if at > f.deadline {
		// Rendered but missed the presentation window.
		s.drop(at, false)
		return
	}
	s.present(at, f.src)
	s.e.Env.Profiler().FrameDone(f.node, at)
}

// drop counts a frame discarded at virtual time at: stale (unrendered) or
// past its presentation deadline.
func (s *sink) drop(at time.Duration, stale bool) {
	if stale {
		s.staleDrops++
	} else {
		s.deadlineDrops++
	}
	if fo := s.e.FrameObs; fo != nil {
		fo.FrameDropped(at)
	}
}

// present counts a frame presented at virtual time at, and its
// motion-to-photon latency from source time src where the app measures it.
func (s *sink) present(at, src time.Duration) {
	s.fps.Present(at)
	fo := s.e.FrameObs
	if fo != nil {
		fo.FramePresented(at)
	}
	if s.measureLatency && src > 0 {
		s.lat.AddDuration(at - src)
		if fo != nil {
			fo.MotionToPhoton(at, at-src)
		}
	}
}

// result assembles the run's Result.
func (s *sink) result(e *emulator.Emulator, spec *Spec) *Result {
	r := &Result{
		App:           spec.Name,
		Emulator:      e.Preset.Name,
		Duration:      spec.Duration,
		FPS:           s.fps.FPS(s.stop),
		Frames:        s.fps.Frames(),
		Drops:         s.staleDrops + s.deadlineDrops,
		StaleDrops:    s.staleDrops,
		DeadlineDrops: s.deadlineDrops,
		PerSecondFPS:  s.fps.PerSecond(s.stop),
	}
	r.Latency.Merge(&s.lat)
	return r
}
