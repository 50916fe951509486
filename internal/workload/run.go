package workload

import (
	"fmt"
	"time"

	"repro/internal/emulator"
	"repro/internal/guest"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/svm"
)

// Pending is a started app whose environment has not been driven yet. It
// lets several apps run concurrently on one emulator instance (contending
// for the same GPU, links, and SVM manager) before a single RunUntil.
type Pending struct {
	e    *emulator.Emulator
	spec Spec
	stop time.Duration
	s    *sink
	err  error
}

// Stop returns the virtual time the app finishes at.
func (pd *Pending) Stop() time.Duration { return pd.stop }

// Wait finalizes the app after the environment has been driven to (at
// least) its stop time.
func (pd *Pending) Wait() (*Result, error) {
	if pd.err != nil {
		return nil, pd.err
	}
	if pd.s == nil {
		return nil, fmt.Errorf("workload: app never started")
	}
	if pd.e.Env.Now() < pd.stop {
		return nil, fmt.Errorf("workload: environment not driven to %v yet", pd.stop)
	}
	return pd.s.result(pd.e, &pd.spec), nil
}

// RunEmerging runs any app (a Table 1 category or a PopularSpec app) on an
// assembled emulator and returns its result. It drives the emulator's
// environment until the spec duration elapses; the caller owns env setup
// and Close.
//
// Returns an error when the emulator cannot run the category at all
// (Trinity lacks camera/encoder support, §5.3).
func RunEmerging(e *emulator.Emulator, spec Spec) (*Result, error) {
	pd, err := StartEmerging(e, spec)
	if err != nil {
		return nil, err
	}
	e.Env.RunUntil(pd.stop)
	return pd.Wait()
}

// StartEmerging launches any app's processes without driving the
// environment, so several apps can share one emulator concurrently.
func StartEmerging(e *emulator.Emulator, spec Spec) (*Pending, error) {
	spec.normalize()
	switch spec.Category {
	case emulator.CatUHDVideo, emulator.Cat360Video, emulator.CatLivestream:
	case emulator.CatCamera, emulator.CatAR:
		if e.Camera == nil {
			return nil, fmt.Errorf("workload: %s does not support cameras", e.Preset.Name)
		}
	case catFrameLoop:
		if spec.popular != PopularHeavy3D && spec.popular != PopularUI {
			return nil, fmt.Errorf("workload: popular kind %d is not a frame-loop app", spec.popular)
		}
	default:
		return nil, fmt.Errorf("workload: unknown category %d", spec.Category)
	}
	stop := e.Env.Now() + spec.Duration
	pd := &Pending{e: e, spec: spec, stop: stop}

	e.Env.Spawn("app-main", func(p *sim.Proc) {
		contentBytes, overlay := spec.VideoFrameBytes(), spec.UIDirtyFraction
		switch spec.Category {
		case emulator.CatCamera, emulator.CatAR:
			contentBytes = FrameBytes(spec.VideoW, spec.VideoH, 4) // ISP RGBA output
		case catFrameLoop:
			// The app renders into display surfaces; the status-bar/HUD
			// overlay is small next to them.
			contentBytes, overlay = spec.DisplayFrameBytes(), 0.08
		}
		q, err := guest.NewBufferQueue(p, e.HAL, spec.Buffers, contentBytes)
		if err != nil {
			pd.err = err
			return
		}
		ui, err := newUIOverlay(p, e, &pd.spec, overlay, stop)
		if err != nil {
			pd.err = err
			return
		}

		s := &sink{
			e:              e,
			spec:           &pd.spec,
			q:              q,
			ui:             ui,
			stop:           stop,
			renderExec:     renderCostFor(e, &spec),
			measureLatency: spec.Category == emulator.CatCamera || spec.Category == emulator.CatAR || spec.Category == emulator.CatLivestream,
			strictPTS:      spec.Category == emulator.CatUHDVideo || spec.Category == emulator.Cat360Video,
		}
		if spec.ARWorkload {
			s.cpuPerFrame = 4 * time.Millisecond // pose tracking on the guest CPU
		}
		if spec.Category != catFrameLoop {
			// Real apps spend variable CPU time per frame on UI logic,
			// audio, and housekeeping; the jitter makes tight pipelines
			// jank. A frame-loop app's render loop does that work.
			rng := e.Env.Rand()
			s.appWork = func() time.Duration {
				return time.Millisecond + time.Duration(rng.Float64()*3*float64(time.Millisecond))
			}
		}

		pd.s = s
		switch spec.Category {
		case emulator.CatUHDVideo, emulator.Cat360Video:
			startVideoProducer(e, &pd.spec, q, stop)
		case emulator.CatCamera, emulator.CatAR:
			if err := startCameraPipeline(p, e, &pd.spec, q, stop); err != nil {
				pd.err = err
				return
			}
		case emulator.CatLivestream:
			if err := startLivestreamPipeline(p, e, &pd.spec, q, stop); err != nil {
				pd.err = err
				return
			}
		case catFrameLoop:
			startFrameLoop(e, &pd.spec, q, stop)
		}
		s.run(p)
	})
	return pd, nil
}

// renderCostFor returns the per-frame GPU cost model for the category.
func renderCostFor(e *emulator.Emulator, spec *Spec) func() time.Duration {
	mp := MPixels(spec.VideoW, spec.VideoH)
	base := e.RenderCost(mp)
	switch {
	case spec.Category == catFrameLoop:
		// SurfaceFlinger composition of the app surface.
		comp := e.RenderCost(MPixels(spec.DisplayW, spec.DisplayH) / 4)
		return func() time.Duration { return comp }
	case spec.ARWorkload:
		// 3D overlay anchored on the camera stream.
		extra := e.GPU3DCost()
		return func() time.Duration { return base + extra }
	case spec.Projection:
		// Equirectangular reprojection roughly doubles the sampling work.
		return func() time.Duration { return 2 * base }
	default:
		return func() time.Duration { return base }
	}
}

// Session bundles a fresh environment + machine + emulator for one run.
type Session struct {
	Env      *sim.Env
	Machine  *hostsim.Machine
	Emulator *emulator.Emulator
}

// NewSession builds an isolated run (one app on one emulator on one
// machine), seeded deterministically.
func NewSession(preset emulator.Preset, machineFn func(*sim.Env) *hostsim.Machine, seed int64) *Session {
	return NewProfiledSession(preset, machineFn, seed, nil, nil, nil)
}

// NewProfiledSession is NewSession with an observability layer attached
// before the emulator is assembled, so every subsystem picks up its tracks,
// metric handles and profiler labels at construction. Any of tr, reg and pf
// may be nil; a nil profiler costs nothing.
func NewProfiledSession(preset emulator.Preset, machineFn func(*sim.Env) *hostsim.Machine,
	seed int64, tr *obs.Tracer, reg *obs.Registry, pf *prof.Profiler) *Session {
	env := sim.NewEnv(seed)
	if tr != nil {
		env.SetTracer(tr)
	}
	if reg != nil {
		env.SetMetrics(reg)
	}
	if pf != nil {
		env.SetProfiler(pf)
	}
	mach := machineFn(env)
	return &Session{Env: env, Machine: mach, Emulator: emulator.New(env, mach, preset)}
}

// Close releases the session's processes.
func (s *Session) Close() { s.Env.Close() }

// SVMStats returns the session's SVM manager statistics.
func (s *Session) SVMStats() *svm.Stats { return s.Emulator.Manager.Stats() }
