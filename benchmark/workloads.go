package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/fleetobs"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/tsmon"
	"repro/internal/workload"
)

// contentFPS is the media rate every app produces frames at:
// workload.DefaultSpec keeps the 60 FPS default, so no session can present
// faster than this.
const contentFPS = 60

// job is one session of a batch workload: one app on one emulator on a
// fresh machine, simulated for dur.
type job struct {
	preset  emulator.Preset
	machine func(*sim.Env) *hostsim.Machine
	cat     int
	app     int
	seed    int64
	dur     time.Duration
}

func (j job) String() string {
	return fmt.Sprintf("%s/%s/app%d", j.preset.Name, emulator.CategoryNames[j.cat], j.app)
}

// workloadDef is one named workload. Batch workloads list their sessions
// through jobs; the farm (jobs == nil) is built by runFarm.
type workloadDef struct {
	name string
	why  string
	jobs func(seed int64, scale float64) []job
	// paperFPS is the paper's mean FPS for this configuration, when the
	// repository holds one (EXPERIMENTS.md); 0 marks an unvalidated workload.
	paperFPS float64
}

// Workload sizes. One pass of each takes two to three seconds of host time
// on a 2-CPU x86-64 container; a run is simPasses passes (see subSeed).
const (
	emergingDur  = 48 * time.Second
	invalidDur   = 4 * time.Second
	laptopDur    = 24 * time.Second
	farmDur      = 150 * time.Second
	farmGuests   = 4
	farmBudget   = 6e9 // bytes/s of PCIe shared by the farm's guests
	farmFPSFloor = 30
)

var workloads = []workloadDef{
	{
		name: "vsoc-emerging",
		why:  "the paper's headline setup: vSoC on the high-end desktop over all Table 1 apps, where prefetch, direct coherence push and fences do the work",
		jobs: func(seed int64, scale float64) []job {
			return emergingJobs(seed, scale, 0, emulator.VSoC(), hostsim.HighEndDesktop, emergingDur)
		},
		paperFPS: 57, // Fig. 10: vSoC reaches ~57 FPS on the high-end desktop
	},
	{
		name: "write-invalidate",
		why:  "the Fig. 16 path: prefetch off, chunked demand fetches and per-chunk fences on every cross-device read",
		jobs: func(seed int64, scale float64) []job {
			p := emulator.VSoCNoPrefetch()
			p.Fetch = hostsim.EnabledFetch()
			return emergingJobs(seed, scale, 500, p, hostsim.HighEndDesktop, invalidDur)
		},
	},
	{
		name: "legacy-laptop",
		why:  "the five baselines on the mid-end laptop: guest-bounce coherence, sync copies, atomic ordering and thermal throttling",
		jobs: func(seed int64, scale float64) []job {
			var jobs []job
			for i, p := range emulator.Mainstream() {
				jobs = append(jobs, emergingJobs(seed, scale, 1+i, p, hostsim.MidEndLaptop, laptopDur)...)
			}
			return jobs
		},
	},
	{
		name: "farm-monitored",
		why:  "four vSoC guests on 2 shards sharing one PCIe budget with fleet and stream monitoring attached: barriers, arbitration and observer hooks",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// emergingJobs lists every runnable (category, app) of a preset, as §5.3
// runs them: up to ten apps per category, skipping the ones the emulator
// cannot run. emuIdx keeps the seeds of different presets apart.
func emergingJobs(seed int64, scale float64, emuIdx int, p emulator.Preset,
	machine func(*sim.Env) *hostsim.Machine, dur time.Duration) []job {
	var jobs []job
	for cat := 0; cat < emulator.NumCategories; cat++ {
		for app := 0; app < p.EmergingCompat[cat]; app++ {
			jobs = append(jobs, job{
				preset: p, machine: machine, cat: cat, app: app,
				seed: appSeed(seed, emuIdx, cat, app),
				dur:  scaled(dur, scale),
			})
		}
	}
	return jobs
}

// simPasses is how many passes a run's simulated-time metrics pool. Pass k
// simulates the workload under subSeed(seed, k), so a run covers four times
// the distinct sessions of one pass: pooled tails and drop shares then vary
// far less from seed to seed, while each pass still yields one host-time
// sample. The count is fixed, so simulated results never depend on how many
// passes the time budget allowed.
const simPasses = 4

// subSeed is the base seed of pass k of a run with seed seed. Pass 0 uses
// the seed itself, as the experiment drivers do.
func subSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// appSeed derives one session's seed, the same way the experiment drivers
// do, so each (emulator, category, app) cell is independent but reproducible.
func appSeed(base int64, emuIdx, cat, app int) int64 {
	return base + int64(emuIdx)*10007 + int64(cat)*101 + int64(app)*13 + 1
}

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale).Round(time.Millisecond)
}

// runConfig is how one pass is driven. Simulated-time results do not depend
// on workers, shards or traced; only host time does.
type runConfig struct {
	seed    int64
	scale   float64
	workers int  // sessions simulated concurrently (batch workloads)
	shards  int  // shard count of the farm's scheduler
	traced  bool // attach a profiler per session and record a CPU profile
}

// sessionStats is what the benchmark reads from one finished session
// through the layers' public statistics. Every field is simulated-time.
type sessionStats struct {
	job    string
	dur    time.Duration
	events uint64
	res    *workload.Result
	sum    uint64 // fingerprint of every field below and both sample streams

	// access is the svm begin_access latency distribution (ms), kept on
	// traced passes only: it runs to megabytes per pass, and holding it on
	// every pass would inflate peak_rss_mb with the benchmark's own data.
	access                  *metrics.Distribution
	cohSum                  float64 // svm coherence copy time, ms
	cohCount                int
	accesses, demand, joins int
	hits, waits, batches    int
	bytesCoh, bytesWaste    hostsim.Bytes
	predTotal, predCorrect  int
	suspensions             int

	dev                     device.Stats // summed over the virtual devices
	commands, kicks, elided int
	irqs                    int
	fenceAllocs, fencePeak  int

	linkBytes        hostsim.Bytes
	linkBusyMax      float64 // busiest link's busy share of the run
	retries, giveups int
}

// farmStats is the farm's scheduler and observability output.
type farmStats struct {
	windows int
	fleet   *fleetobs.Report
	mon     *tsmon.MonReport
	// Host time: the fleet's barrier-stall table and the wall time of
	// finalizing and rendering the fleet and monitor reports.
	stall      *fleetobs.StallReport
	reportWall time.Duration
}

// pass is one set-up-and-run of a workload.
type pass struct {
	setup    time.Duration // serial construction of every session (host)
	wall     time.Duration // running them (host)
	calib    time.Duration // calibrate() just before the pass (end-to-end runs)
	mallocs  uint64        // heap allocations while running
	sessions []sessionStats
	farm     *farmStats
	digest   string
	prof     *prof.Report // merged critical-path report (traced passes)
	cpu      []byte       // pprof CPU profile of the run (traced passes)
}

// runPass sets up and runs one pass of w.
func runPass(w workloadDef, cfg runConfig) (*pass, error) {
	run := runFarm
	if w.jobs != nil {
		run = func(cfg runConfig) (*pass, error) { return runBatch(w.jobs(cfg.seed, cfg.scale), cfg) }
	}
	p, err := run(cfg)
	if err != nil {
		return nil, err
	}
	p.digest = passDigest(p)
	return p, nil
}

// runBatch builds every session serially, then simulates them on a pool of
// cfg.workers goroutines. Results land in job order, so they do not depend
// on which worker ran which session.
func runBatch(jobs []job, cfg runConfig) (*pass, error) {
	p := &pass{sessions: make([]sessionStats, len(jobs))}
	pfs := make([]*prof.Profiler, len(jobs))
	sessions := make([]*workload.Session, len(jobs))

	runtime.GC()
	start := time.Now()
	for i, j := range jobs {
		if cfg.traced {
			pfs[i] = prof.New()
		}
		sessions[i] = workload.NewProfiledSession(j.preset, j.machine, j.seed, nil, nil, pfs[i])
	}
	p.setup = time.Since(start)

	errs := make([]error, len(jobs))
	err := p.measure(cfg.traced, func() {
		pool(cfg.workers, len(jobs), func(i int) {
			j, s := jobs[i], sessions[i]
			defer s.Close()
			r, err := workload.RunEmerging(s.Emulator, workload.DefaultSpec(j.cat, j.app, j.dur))
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", j, err)
				return
			}
			p.sessions[i] = snapshot(j.String(), s, r, cfg.traced)
		})
	})
	if err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if cfg.traced {
		p.prof = prof.New().Report()
		for _, pf := range pfs {
			p.prof.Merge(pf.Report())
		}
	}
	return p, nil
}

// pool runs fn(0..n-1) on `workers` goroutines and returns when all are done.
func pool(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// measure times run, counting its heap allocations and, on traced passes,
// recording a CPU profile of it. The heap is collected first so every pass
// starts from the same state.
func (p *pass) measure(traced bool, run func()) error {
	runtime.GC()
	var cpu bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	run()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	if traced {
		pprof.StopCPUProfile()
		p.cpu = cpu.Bytes()
	}
	p.mallocs = after.Mallocs - before.Mallocs
	return nil
}

// snapshot reads a finished session's layer statistics, keeping its access
// latency samples when keepAccess is set.
func snapshot(name string, s *workload.Session, r *workload.Result, keepAccess bool) sessionStats {
	sv := s.SVMStats()
	st := sessionStats{
		job: name, dur: r.Duration, events: s.Env.ExecutedEvents(), res: r,
		cohSum:   sv.CoherenceCost.Sum(),
		cohCount: sv.CoherenceCost.Count(),
		accesses: sv.Accesses, demand: sv.DemandFetches, joins: sv.FetchJoins,
		hits: sv.PrefetchHits, waits: sv.PrefetchWaits, batches: sv.CoherenceBatches,
		bytesCoh: sv.BytesCoherence, bytesWaste: sv.BytesWasted,
		predTotal: sv.PredTotal, predCorrect: sv.PredCorrect,
		fenceAllocs: s.Emulator.Fences.Allocs(),
		fencePeak:   s.Emulator.Fences.Peak(),
	}
	if eng := s.Emulator.Manager.Engine(); eng != nil {
		st.suspensions = eng.Suspensions()
	}
	for _, d := range s.Emulator.Devices() {
		ds := d.Stats()
		st.dev.Submitted += ds.Submitted
		st.dev.Executed += ds.Executed
		st.dev.FenceWaits += ds.FenceWaits
		st.dev.AtomicOps += ds.AtomicOps
		st.dev.IRQs += ds.IRQs
		st.dev.FenceTimeouts += ds.FenceTimeouts
		st.dev.DroppedOps += ds.DroppedOps
		rs := d.Ring().Stats()
		st.commands += rs.Commands
		st.kicks += rs.Kicks
		st.elided += rs.ElidedKicks
		st.irqs += d.IRQ().Delivered()
	}
	for _, l := range s.Machine.Links() {
		st.linkBytes += l.BytesMoved()
		if f := float64(l.BusyTime()) / float64(r.Duration); f > st.linkBusyMax {
			st.linkBusyMax = f
		}
		st.retries += l.DMARetries()
		st.giveups += l.DMAGiveUps()
	}
	st.sum = sessionSum(&st, &sv.AccessLatency)
	if keepAccess {
		access := sv.AccessLatency
		st.access = &access
	}
	return st
}

// farmCategories gives each farm guest a distinct device pipeline: decode-,
// projection-, camera- and network-bound.
var farmCategories = [farmGuests]int{
	emulator.CatUHDVideo, emulator.Cat360Video, emulator.CatCamera, emulator.CatLivestream,
}

// farmTenant is guest g's QoS contract: a 30 FPS floor for every guest and a
// motion-to-photon SLO for the pipelines whose sink measures latency.
func farmTenant(g, cat int) fleetobs.TenantConfig {
	tc := fleetobs.TenantConfig{
		Name:     fmt.Sprintf("g%d:%s", g, emulator.CategoryNames[cat]),
		FPSFloor: farmFPSFloor,
	}
	switch cat {
	case emulator.CatCamera:
		tc.M2PSLO = 100 * time.Millisecond
	case emulator.CatLivestream:
		tc.M2PSLO = 250 * time.Millisecond
	}
	return tc
}

// frameTee fans one guest's frame telemetry out to the fleet and the
// stream monitor, which each take a single observer.
type frameTee struct{ a, b emulator.FrameObserver }

func (t frameTee) FramePresented(at time.Duration) {
	t.a.FramePresented(at)
	t.b.FramePresented(at)
}

func (t frameTee) FrameDropped(at time.Duration) {
	t.a.FrameDropped(at)
	t.b.FrameDropped(at)
}

func (t frameTee) MotionToPhoton(at, latency time.Duration) {
	t.a.MotionToPhoton(at, latency)
	t.b.MotionToPhoton(at, latency)
}

// runFarm builds the four-guest vSoC farm of the shardscale experiment from
// public constructors — guests, fleet and stream monitors, the shared-host
// PCIe arbiter and the shard group — and runs it to the guests' stop time.
// The monitors are part of the workload: their reports are results.
func runFarm(cfg runConfig) (*pass, error) {
	p := &pass{farm: &farmStats{}}
	f := p.farm
	sessions := make([]*workload.Session, 0, farmGuests)
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	pfs := make([]*prof.Profiler, farmGuests)
	envs := make([]*sim.Env, farmGuests)
	machs := make([]*hostsim.Machine, farmGuests)
	pend := make([]*workload.Pending, farmGuests)
	dur := scaled(farmDur, cfg.scale)

	runtime.GC()
	start := time.Now()
	fcfg := fleetobs.Config{Registry: obs.NewRegistry()}
	var mcfg tsmon.Config
	for g, cat := range farmCategories {
		tc := farmTenant(g, cat)
		fcfg.Tenants = append(fcfg.Tenants, tc)
		mcfg.Tenants = append(mcfg.Tenants, tsmon.TenantConfig{
			Name: tc.Name, FPSFloor: tc.FPSFloor, M2PSLO: tc.M2PSLO,
		})
	}
	fl := fleetobs.New(fcfg)
	mon := tsmon.New(mcfg)
	for g, cat := range farmCategories {
		if cfg.traced {
			pfs[g] = prof.New()
		}
		s := workload.NewProfiledSession(emulator.VSoC(), hostsim.HighEndDesktop,
			appSeed(cfg.seed, 700+g, cat, 0), nil, nil, pfs[g])
		sessions = append(sessions, s)
		envs[g], machs[g] = s.Env, s.Machine
		ft, mt := fl.Tenant(g), mon.Tenant(g)
		s.Emulator.FrameObs = frameTee{ft, mt}
		s.Emulator.Manager.SetFetchObserver(func(at, latency time.Duration) {
			ft.DemandFetch(at, latency)
			mt.DemandFetch(at, latency)
		})
		experiments.MonitorProbes(mt, s)
		pd, err := workload.StartEmerging(s.Emulator, workload.DefaultSpec(cat, g, dur))
		if err != nil {
			return nil, fmt.Errorf("farm guest %d: %w", g, err)
		}
		pend[g] = pd
	}
	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{PCIeBudget: farmBudget}, machs...)
	grp := sim.NewShardGroup(sh.Lookahead(), cfg.shards, envs...)
	defer grp.Close()
	sh.Attach(grp)
	grp.AtBarrier(func(prev, now time.Duration) { f.windows++ })
	fl.Attach(grp, sh)
	grp.AtBarrier(func(prev, now time.Duration) { mon.Seal(now) })
	p.setup = time.Since(start)

	err := p.measure(cfg.traced, func() {
		grp.RunUntil(dur)
		t := time.Now()
		fl.Finalize(dur)
		f.fleet = fl.Report(dur)
		f.stall = fl.StallReport()
		mon.Finalize(dur)
		f.mon = mon.Report()
		f.reportWall = time.Since(t)
	})
	if err != nil {
		return nil, err
	}
	for g, pd := range pend {
		r, err := pd.Wait()
		if err != nil {
			return nil, fmt.Errorf("farm guest %d: %w", g, err)
		}
		p.sessions = append(p.sessions, snapshot(fmt.Sprintf("farm/g%d", g), sessions[g], r, cfg.traced))
	}
	if cfg.traced {
		p.prof = prof.New().Report()
		for _, pf := range pfs {
			p.prof.Merge(pf.Report())
		}
	}
	return p, nil
}
