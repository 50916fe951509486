package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ServicesResult reproduces §2.3's service-attribution observations: which
// guest services dominate shared-memory traffic, how many processes share
// each region, and how cyclic the access patterns are.
type ServicesResult struct {
	Top               []trace.UsageShare
	FewSharerFraction float64
	CyclicFraction    float64
	CallsPerSecond    float64
}

// RunServices traces the emerging-app mix on vSoC with §2.3-style process
// attribution.
func RunServices(cfg Config) *ServicesResult {
	capped := cfg
	capped.AppsPerCategory = min(cfg.AppsPerCategory, 2)
	cells := appCells(capped, emulator.VSoC(), HighEnd, 700, allCats)
	traces := make([]*trace.Collector, len(cells))
	for i := range cells {
		appTrace := trace.NewCollector()
		traces[i] = appTrace
		cells[i].setup = func(s *workload.Session, _ *workload.Spec) {
			trace.Attach(s.Emulator.Manager, appTrace, trace.AndroidServiceOf)
		}
	}
	ran := sweep(cfg, cells, func(*workload.Session, *workload.Result) bool { return true })
	c := trace.NewCollector()
	var total time.Duration
	for i, appTrace := range traces {
		if ran[i] {
			c.Merge(appTrace)
			total += cfg.Duration
		}
	}
	return &ServicesResult{
		Top:               c.TopUsers(5),
		FewSharerFraction: c.FewSharerFraction(),
		CyclicFraction:    c.CyclicFraction(),
		CallsPerSecond:    c.CallRate(total),
	}
}

// FormatServices renders the §2.3 service observations.
func FormatServices(r *ServicesResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shared-memory usage by service (§2.3)\n")
	for _, u := range r.Top {
		fmt.Fprintf(&b, "%-16s %5.1f%% of traffic\n", u.Caller, u.Share*100)
	}
	fmt.Fprintf(&b, "regions serving <=2 processes: %.0f%% (paper: 99%%)\n", r.FewSharerFraction*100)
	fmt.Fprintf(&b, "cyclic W/R pipeline pattern:   %.0f%% (paper: 96%%)\n", r.CyclicFraction*100)
	fmt.Fprintf(&b, "API calls per second:          %.0f (paper: 261-323)\n", r.CallsPerSecond)
	return b.String()
}

// ProtocolCell is one coherence protocol's showing on the churn microbench.
type ProtocolCell struct {
	Protocol string
	// ReadLatencyMS is the mean blocking time of reads.
	ReadLatencyMS float64
	// CoherenceGiB is the total data moved by coherence maintenance.
	CoherenceGiB float64
	// WasteFraction is the share of coherence bytes never consumed.
	WasteFraction float64
}

// ProtocolResult compares coherence protocols on the same unified SVM
// architecture (the §7 design space: prefetch vs write-invalidate vs
// broadcast).
type ProtocolResult struct {
	Cells []ProtocolCell
}

// RunProtocols compares the three coherence protocols on a pipeline with
// occasional consumer churn — a codec stream mostly read by the GPU, with
// every 20th frame also shared out through the NIC (a short-form-style
// pipeline switch, the case §3.3 worries about). Write-invalidate pays read
// latency; broadcast pays bandwidth pushing every frame to the NIC; the
// prefetch protocol follows the flow.
func RunProtocols(cfg Config) *ProtocolResult {
	kinds := []svm.Kind{svm.KindPrefetch, svm.KindWriteInvalidate, svm.KindBroadcast}
	cells := ParMap(cfg.EffectiveWorkers(), len(kinds), func(ki int) ProtocolCell {
		kind := kinds[ki]
		env := sim.NewEnv(cfg.Seed + int64(kind))
		mach := hostsim.HighEndDesktop(env)
		scfg := svm.DefaultConfig()
		scfg.Kind = kind
		m := svm.NewManager(env, mach, scfg)
		m.RegisterVirtualDevice(0, "vcodec")
		m.RegisterVirtualDevice(1, "vgpu")
		m.RegisterVirtualDevice(2, "vnic")
		m.RegisterPhysicalDevice(0, "codec", mach.DRAM)
		m.RegisterPhysicalDevice(1, "gpu", mach.VRAM)
		m.RegisterPhysicalDevice(2, "nic", mach.NICBuf)
		codec := svm.Accessor{Virtual: 0, Physical: 0, Domain: mach.DRAM, Name: "codec"}
		gpu := svm.Accessor{Virtual: 1, Physical: 1, Domain: mach.VRAM, Name: "gpu"}
		nic := svm.Accessor{Virtual: 2, Physical: 2, Domain: mach.NICBuf, Name: "nic"}

		frames := int(cfg.Duration / (16667 * time.Microsecond))
		region, _ := m.Alloc(16 * hostsim.MiB)
		var readLat metrics.Distribution
		env.Spawn("pipeline", func(p *sim.Proc) {
			for i := 0; i < frames; i++ {
				a, _ := m.BeginAccess(p, region.ID, codec, svm.UsageWrite, 0)
				info, _ := a.End(p)
				if info.Compensation > 0 {
					p.Sleep(info.Compensation)
				}
				p.Sleep(16 * time.Millisecond)
				start := p.Now()
				rd, _ := m.BeginAccess(p, region.ID, gpu, svm.UsageRead, 0)
				readLat.AddDuration(p.Now() - start)
				_, _ = rd.End(p)
				if i%20 == 19 {
					// Occasional share-out through the NIC.
					s2 := p.Now()
					rn, _ := m.BeginAccess(p, region.ID, nic, svm.UsageRead, 0)
					readLat.AddDuration(p.Now() - s2)
					_, _ = rn.End(p)
				}
			}
		})
		env.RunUntil(cfg.Duration * 4)
		st := m.Stats()
		env.Close()
		return ProtocolCell{
			Protocol:      kind.String(),
			ReadLatencyMS: readLat.Mean(),
			CoherenceGiB:  float64(st.BytesCoherence) / (1 << 30),
			WasteFraction: st.WasteFraction(),
		}
	})
	return &ProtocolResult{Cells: cells}
}

// FormatProtocols renders the protocol comparison.
func FormatProtocols(r *ProtocolResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Coherence protocol comparison, churning pipeline (§7)\n")
	fmt.Fprintf(&b, "%-18s %14s %12s %8s\n", "protocol", "read lat (ms)", "coh (GiB)", "waste")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %14.2f %12.2f %7.1f%%\n",
			c.Protocol, c.ReadLatencyMS, c.CoherenceGiB, c.WasteFraction*100)
	}
	return b.String()
}

// ThermalResult is the §5.3 laptop degradation story: per-10-second FPS of
// GAE and vSoC video on the middle-end laptop.
type ThermalResult struct {
	BucketSeconds int
	GAE           []float64
	VSoC          []float64
	GAEThrottled  bool
	VSoCThrottled bool
}

// RunThermal reproduces the §5.3 observation that GAE video starts near 30
// FPS on the laptop and collapses within a minute as the CPU throttles,
// while vSoC's hardware decode never heats the package.
func RunThermal(cfg Config) *ThermalResult {
	const bucket = 10
	long := cfg
	long.Duration = max(cfg.Duration, 100*time.Second)
	type thermalRun struct {
		buckets   []float64
		throttled bool
	}
	var cells []cell
	for _, p := range []emulator.Preset{emulator.GAE(), emulator.VSoC()} {
		cells = append(cells, cell{preset: p, machine: MidEnd, cat: emulator.CatUHDVideo, seed: cfg.Seed})
	}
	runs := sweep(long, cells, func(s *workload.Session, r *workload.Result) thermalRun {
		var buckets []float64
		for i := 0; i+bucket <= len(r.PerSecondFPS); i += bucket {
			var sum float64
			for _, v := range r.PerSecondFPS[i : i+bucket] {
				sum += v
			}
			buckets = append(buckets, sum/bucket)
		}
		return thermalRun{buckets, s.Machine.Thermal != nil && s.Machine.Thermal.Throttled()}
	})
	out := &ThermalResult{BucketSeconds: bucket}
	out.GAE, out.GAEThrottled = runs[0].buckets, runs[0].throttled
	out.VSoC, out.VSoCThrottled = runs[1].buckets, runs[1].throttled
	return out
}

// FormatThermal renders the degradation trajectories.
func FormatThermal(r *ThermalResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Laptop thermal story (§5.3): UHD video FPS per %ds bucket\n", r.BucketSeconds)
	row := func(name string, vals []float64, throttled bool) {
		fmt.Fprintf(&b, "%-6s", name)
		for _, v := range vals {
			fmt.Fprintf(&b, " %5.1f", v)
		}
		fmt.Fprintf(&b, "  throttled=%v\n", throttled)
	}
	row("GAE", r.GAE, r.GAEThrottled)
	row("vSoC", r.VSoC, r.VSoCThrottled)
	return b.String()
}

// ResolutionCell is one (emulator, resolution) video measurement.
type ResolutionCell struct {
	Emulator string
	Width    int
	Height   int
	FPS      float64
}

// ResolutionResult reproduces the §5.3 side observation: the emulators that
// stutter at UHD play 1280x720 smoothly — a performance problem, not a
// functional one.
type ResolutionResult struct {
	Cells []ResolutionCell
}

// Of returns the cell for (emulator, width).
func (r *ResolutionResult) Of(emu string, w int) *ResolutionCell {
	for i := range r.Cells {
		if r.Cells[i].Emulator == emu && r.Cells[i].Width == w {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunResolutionSweep plays the video workload at 720p, 1080p, and UHD on
// the weakest emulators plus vSoC.
func RunResolutionSweep(cfg Config) *ResolutionResult {
	resolutions := [][2]int{{1280, 720}, {1920, 1080}, {3840, 2160}}
	targets := []emulator.Preset{
		emulator.VSoC(), emulator.LDPlayer(), emulator.Bluestacks(), emulator.Trinity(),
	}
	var cells []cell
	for ei, p := range targets {
		for ri, res := range resolutions {
			cells = append(cells, cell{preset: p, machine: HighEnd, cat: emulator.CatUHDVideo,
				seed: appSeed(cfg.Seed, 800+ei, ri, 0),
				setup: func(_ *workload.Session, spec *workload.Spec) {
					spec.VideoW, spec.VideoH = res[0], res[1]
				}})
		}
	}
	runs := sweep(cfg, cells, result)
	out := &ResolutionResult{}
	for i, c := range cells {
		res := resolutions[i%len(resolutions)]
		rc := ResolutionCell{Emulator: c.preset.Name, Width: res[0], Height: res[1]}
		if runs[i] != nil {
			rc.FPS = runs[i].FPS
		}
		out.Cells = append(out.Cells, rc)
	}
	return out
}

// FormatResolution renders the sweep.
func FormatResolution(r *ResolutionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Video FPS vs content resolution (§5.3's functional check)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "emulator", "720p", "1080p", "UHD")
	for _, emu := range []string{"vSoC", "LDPlayer", "Bluestacks", "Trinity"} {
		fmt.Fprintf(&b, "%-12s", emu)
		for _, w := range []int{1280, 1920, 3840} {
			if c := r.Of(emu, w); c != nil {
				fmt.Fprintf(&b, " %10.1f", c.FPS)
			} else {
				fmt.Fprintf(&b, " %10s", "n/a")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
