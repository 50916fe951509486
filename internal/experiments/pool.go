package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/emulator"
	"repro/internal/prof"
	"repro/internal/svm"
	"repro/internal/workload"
)

// The Run* drivers all share one shape: a list of (machine, emulator,
// category, app) cells, each simulating one app session on a private
// sim.Env, whose statistics fold into the result. The sessions never touch
// shared state — every package-level variable they read (presets, name
// tables, workload mixes) is immutable — so the cells can run on any
// goroutine in any order. Determinism is preserved by separating execution
// from aggregation: sweep (over ParMap) stores each cell's result at its
// cell index, and the driver then merges the slice in cell order. The output
// is byte-identical to the serial path; only wall-clock time changes.

// EffectiveWorkers reports the concurrency the Run* drivers use for this
// configuration: Config.Workers, or one worker per CPU when it is 0.
func (c Config) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ParMap evaluates fn(0) … fn(n-1) on at most workers goroutines and
// returns the results indexed by argument. fn must derive everything from
// its index (no iteration-order dependence); callers then merge out[0..n-1]
// sequentially to get serial-identical aggregates. workers <= 1 degenerates
// to a plain loop on the calling goroutine. Besides the experiment drivers,
// the internal/tune search evaluates candidate batches through it.
func ParMap[R any](workers, n int, fn func(int) R) []R {
	out := make([]R, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// A cell is one app session of a sweep: app number app of Table 1 category
// cat (or, with popular set, of popular-app kind cat) on one preset and
// machine.
type cell struct {
	preset   emulator.Preset
	machine  MachineSpec
	cat, app int
	seed     int64
	// popular runs the popular-app workload, cat being its
	// workload.PopularKind.
	popular bool
	// profile attaches a critical-path profiler, read back through
	// Session.Env.Profiler; without it the session is a plain one.
	profile bool
	// setup, when set, adjusts the session and the app's spec before the
	// run.
	setup func(*workload.Session, *workload.Spec)
}

// allCats and videoCats are the category lists the sweeps iterate.
var (
	allCats   = []int{emulator.CatUHDVideo, emulator.Cat360Video, emulator.CatCamera, emulator.CatAR, emulator.CatLivestream}
	videoCats = []int{emulator.CatUHDVideo, emulator.Cat360Video}
)

// appCells lists preset's cells on machine: the first cfg.AppsPerCategory
// apps of each category in cats that the preset runs, seeded
// appSeed(cfg.Seed, salt, cat, app).
func appCells(cfg Config, preset emulator.Preset, machine MachineSpec, salt int, cats []int) []cell {
	var cells []cell
	for _, cat := range cats {
		for app := 0; app < min(cfg.AppsPerCategory, preset.EmergingCompat[cat]); app++ {
			cells = append(cells, cell{preset: preset, machine: machine, cat: cat, app: app,
				seed: appSeed(cfg.Seed, salt, cat, app)})
		}
	}
	return cells
}

// popularCells lists preset's cells for the first n apps of the popular
// mix on the high-end machine, seeded appSeed(cfg.Seed, salt, kind, app).
func popularCells(cfg Config, preset emulator.Preset, salt int, mix []workload.PopularKind, n int) []cell {
	cells := make([]cell, n)
	for app := range cells {
		kind := int(mix[app])
		cells[app] = cell{preset: preset, machine: HighEnd, cat: kind, app: app,
			seed: appSeed(cfg.Seed, salt, kind, app), popular: true}
	}
	return cells
}

// sweep runs every cell as one cfg.Duration app session on cfg's worker
// pool and returns keep(session, result) per cell, in cell order. A cell
// whose app fails to run keeps the zero R.
func sweep[R any](cfg Config, cells []cell, keep func(*workload.Session, *workload.Result) R) []R {
	return ParMap(cfg.EffectiveWorkers(), len(cells), func(i int) R {
		c := cells[i]
		var pf *prof.Profiler
		if c.profile {
			pf = prof.New()
		}
		s := workload.NewProfiledSession(c.preset, c.machine.New, c.seed, nil, nil, pf)
		defer s.Close()
		var spec workload.Spec
		if c.popular {
			spec = workload.PopularSpec(workload.PopularKind(c.cat), c.app, cfg.Duration)
		} else {
			spec = workload.DefaultSpec(c.cat, c.app, cfg.Duration)
		}
		if c.setup != nil {
			c.setup(s, &spec)
		}
		r, err := workload.RunEmerging(s.Emulator, spec)
		if err != nil {
			var zero R
			return zero
		}
		return keep(s, r)
	})
}

// meanFPS averages FPS over the runs of the cells that match, in cell order,
// and counts them; apps that failed to run are skipped.
func meanFPS(cells []cell, runs []*workload.Result, match func(cell) bool) (mean float64, n int) {
	var sum float64
	for i, c := range cells {
		if runs[i] != nil && match(c) {
			sum += runs[i].FPS
			n++
		}
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return mean, n
}

// result and svmStats are the common keep functions: the app's result, or
// its session's SVM statistics.
func result(_ *workload.Session, r *workload.Result) *workload.Result { return r }

func svmStats(s *workload.Session, _ *workload.Result) *svm.Stats { return s.SVMStats() }
