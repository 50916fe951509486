package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prof"
)

// Quick returns a configuration small enough for tests.
func Quick() Config {
	return Config{Duration: 10 * time.Second, AppsPerCategory: 2, PopularApps: 6, Seed: 1}
}

// Of returns a platform's trace.
func (s *StudyResult) Of(platform string) *PlatformTrace {
	for i := range s.Traces {
		if s.Traces[i].Platform == platform {
			return &s.Traces[i]
		}
	}
	return nil
}

// Of returns a protocol's cell.
func (r *ProtocolResult) Of(name string) *ProtocolCell {
	for i := range r.Cells {
		if r.Cells[i].Protocol == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// Cell returns the cell for (emulator, fault class), or nil.
func (r *RobustnessResult) Cell(emu string, class faults.Class) *RobustnessCell {
	for i := range r.Cells {
		if r.Cells[i].Emulator == emu && r.Cells[i].Fault == class {
			return &r.Cells[i]
		}
	}
	return nil
}

// folded renders a profile report's folded stacks as a string.
func folded(r *prof.Report) string {
	var b strings.Builder
	_ = r.WriteFolded(&b)
	return b.String()
}

// counterValue reads a counter through the registry's snapshot.
func counterValue(reg *obs.Registry, name string) int64 {
	for _, e := range reg.Snapshot() {
		if e.Kind == "counter" && e.Name == name {
			return e.Count
		}
	}
	return 0
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Count != 10 {
			t.Fatalf("%s count = %d, want 10", r.Type, r.Count)
		}
	}
	if !contains(rows[4].Devices, "NIC") {
		t.Fatal("livestream must involve the NIC")
	}
	if !contains(rows[2].Devices, "ISP") || !contains(rows[3].Devices, "Camera") {
		t.Fatal("camera/AR must involve camera and ISP")
	}
}

func contains(ss []string, v string) bool {
	for _, s := range ss {
		if s == v {
			return true
		}
	}
	return false
}

func TestTable2Shape(t *testing.T) {
	res := RunTable2(Quick())
	v := res.Of("vSoC", HighEnd.Name)
	g := res.Of("GAE", HighEnd.Name)
	q := res.Of("QEMU-KVM", HighEnd.Name)
	if v == nil || g == nil || q == nil {
		t.Fatal("missing rows")
	}
	// Access latency: QEMU < vSoC < GAE (Table 2: 0.22 / 0.34 / 0.76 ms).
	if !(q.AccessLatencyMS < v.AccessLatencyMS && v.AccessLatencyMS < g.AccessLatencyMS) {
		t.Fatalf("access latency ordering wrong: q=%.2f v=%.2f g=%.2f",
			q.AccessLatencyMS, v.AccessLatencyMS, g.AccessLatencyMS)
	}
	// Coherence cost: vSoC far below both (62-68% lower).
	if v.CoherenceCostMS > 0.6*g.CoherenceCostMS || v.CoherenceCostMS > 0.6*q.CoherenceCostMS {
		t.Fatalf("vSoC coherence %.2f not well below GAE %.2f / QEMU %.2f",
			v.CoherenceCostMS, g.CoherenceCostMS, q.CoherenceCostMS)
	}
	// Throughput: vSoC highest.
	if v.ThroughputGBs <= g.ThroughputGBs || v.ThroughputGBs <= q.ThroughputGBs {
		t.Fatalf("vSoC throughput %.2f should lead (GAE %.2f, QEMU %.2f)",
			v.ThroughputGBs, g.ThroughputGBs, q.ThroughputGBs)
	}
	// vSoC coherence is nearly all host-direct (§5.2: 98%).
	if v.DirectShare < 0.95 {
		t.Fatalf("vSoC direct share = %.2f, want ~0.98", v.DirectShare)
	}
	// Mid-end coherence is costlier than high-end for the guest-backed
	// emulators (Table 2's second numbers).
	gm := res.Of("GAE", MidEnd.Name)
	if gm.CoherenceCostMS <= g.CoherenceCostMS {
		t.Fatalf("GAE mid coherence %.2f should exceed high-end %.2f",
			gm.CoherenceCostMS, g.CoherenceCostMS)
	}
}

func TestEmergingSweepShape(t *testing.T) {
	res := RunEmergingSweep(Quick(), HighEnd)
	v := res.MeanFPSOf("vSoC")
	if v < 55 {
		t.Fatalf("vSoC mean FPS = %.1f, want ~57-60", v)
	}
	for _, emu := range []string{"GAE", "QEMU-KVM", "LDPlayer", "Bluestacks", "Trinity"} {
		b := res.MeanFPSOf(emu)
		if b <= 0 {
			t.Fatalf("%s has no FPS data", emu)
		}
		// §5.3: vSoC achieves 1.8-9x the baselines' frame rates.
		if v < 1.5*b {
			t.Fatalf("vSoC %.1f not >= 1.5x %s %.1f", v, emu, b)
		}
	}
	// Trinity runs only the two video categories.
	if c := res.Cell("Trinity", 2); c == nil || c.Apps != 0 {
		t.Fatal("Trinity must not run camera apps")
	}
	// Latency: vSoC lowest (§5.3: 35-62% lower).
	vl := res.MeanLatencyOf("vSoC")
	for _, emu := range []string{"GAE", "QEMU-KVM", "LDPlayer", "Bluestacks"} {
		bl := res.MeanLatencyOf(emu)
		if vl >= bl {
			t.Fatalf("vSoC latency %.1f not below %s %.1f", vl, emu, bl)
		}
		if red := (bl - vl) / bl; red < 0.3 {
			t.Fatalf("latency reduction vs %s = %.0f%%, want >= 30%%", emu, red*100)
		}
	}
}

func TestAblationShape(t *testing.T) {
	res := RunAblation(Quick())
	if d := res.AvgDropNoPrefetch(); d < 0.25 {
		t.Fatalf("no-prefetch avg drop = %.0f%%, want substantial (paper 30%%)", d*100)
	}
	if d := res.VideoDropNoPrefetch(); d < 0.5 {
		t.Fatalf("no-prefetch video drop = %.0f%%, want ~66%%", d*100)
	}
	nf := res.AvgDropNoFence()
	if nf < 0.02 || nf > 0.3 {
		t.Fatalf("no-fence drop = %.0f%%, want moderate ~11%%", nf*100)
	}
	if res.AvgDropNoPrefetch() <= nf {
		t.Fatal("prefetch must matter more than fences on emerging apps")
	}
}

func TestPopularShape(t *testing.T) {
	res := RunPopular(Quick())
	v := res.Of("vSoC")
	if v == nil || v.MeanFPS < 50 {
		t.Fatalf("vSoC popular = %+v, want ~55 FPS", v)
	}
	g := res.Of("GAE")
	// §5.5: vSoC 12-49% better; GAE trails the most.
	if v.MeanFPS < 1.1*g.MeanFPS {
		t.Fatalf("vSoC %.1f should beat GAE %.1f by the largest margin", v.MeanFPS, g.MeanFPS)
	}
	for _, c := range res.Cells {
		if c.Emulator == "vSoC" {
			continue
		}
		if c.MeanFPS > v.MeanFPS+0.5 {
			t.Fatalf("%s %.1f beats vSoC %.1f", c.Emulator, c.MeanFPS, v.MeanFPS)
		}
		if g.MeanFPS > c.MeanFPS+0.5 {
			t.Fatalf("GAE %.1f should be the slowest, but beats %s %.1f",
				g.MeanFPS, c.Emulator, c.MeanFPS)
		}
	}
}

func TestPopularAblationShape(t *testing.T) {
	res := RunPopularAblation(Quick())
	if res.FullMean <= 0 {
		t.Fatal("no data")
	}
	// §5.5: moderate average drops (-6% / -8%), most apps affected.
	if res.NoPrefetchMean > res.FullMean || res.NoFenceMean > res.FullMean+0.5 {
		t.Fatalf("ablations should not beat full vSoC: %.1f vs %.1f/%.1f",
			res.FullMean, res.NoPrefetchMean, res.NoFenceMean)
	}
	if res.AppsDropNoPrefetch == 0 {
		t.Fatal("some apps should drop FPS without prefetch")
	}
}

func TestPredictionShape(t *testing.T) {
	res := RunPrediction(Quick())
	if len(res.DeviceAccuracy) < 4 {
		t.Fatalf("accuracy for %d categories, want >= 4", len(res.DeviceAccuracy))
	}
	for cat, acc := range res.DeviceAccuracy {
		if acc < 0.99 {
			t.Fatalf("%s device accuracy = %.3f, want >= 0.99 (§5.2)", cat, acc)
		}
	}
	// Timing std errors in the sub-millisecond regime (paper: 0.9/0.3ms).
	if res.SlackStdErrMS > 1.5 {
		t.Fatalf("slack std err = %.2f ms, want <= 1.5", res.SlackStdErrMS)
	}
	if res.PrefetchStdErrMS > 1.0 {
		t.Fatalf("prefetch-time std err = %.2f ms, want <= 1.0", res.PrefetchStdErrMS)
	}
}

func TestOverheadShape(t *testing.T) {
	res := RunOverhead(Quick())
	if res.MemoryBytes <= 0 || res.MemoryBytes > 3100*1024 {
		t.Fatalf("memory = %d bytes, want within the 3.1 MiB budget", res.MemoryBytes)
	}
	if res.CPUFraction >= 0.01 {
		t.Fatalf("CPU fraction = %.3f, want < 1%% (§5.2)", res.CPUFraction)
	}
	if res.FenceTablePeak > res.FenceCapacity {
		t.Fatal("fence table exceeded one page")
	}
}

func TestFig16Shape(t *testing.T) {
	res := RunFig16(Quick(), fig16Preset(Quick()))
	if len(res.CDF) == 0 {
		t.Fatal("empty CDF")
	}
	// Write-invalidate shows a multi-ms mean with a heavy tail (the paper
	// observes blocking up to ~40 ms).
	if res.MeanMS < 2 {
		t.Fatalf("mean = %.2f ms, want multi-ms", res.MeanMS)
	}
	if res.MaxMS < 10 {
		t.Fatalf("max = %.2f ms, want a heavy tail (>= 10ms)", res.MaxMS)
	}
	if res.MaxMS < res.MeanMS {
		t.Fatal("max below mean")
	}
}

func TestStudyShape(t *testing.T) {
	res := RunStudy(Quick())
	if len(res.Traces) != 3 {
		t.Fatalf("platforms = %d, want 3", len(res.Traces))
	}
	native := res.Of("native")
	gae := res.Of("GAE")
	qemu := res.Of("QEMU-KVM")
	if native == nil || gae == nil || qemu == nil {
		t.Fatal("missing platforms")
	}
	// Fig. 4: most regions > 1 MiB; modal sizes near 9.9 and 15.8 MiB on
	// every platform.
	for _, tr := range res.Traces {
		if tr.RegionSizes.FractionAbove(1) < 0.4 {
			t.Fatalf("%s: only %.0f%% of regions > 1 MiB, want ~49%%+",
				tr.Platform, tr.RegionSizes.FractionAbove(1)*100)
		}
		has99 := tr.RegionSizes.FractionBelow(10.2)-tr.RegionSizes.FractionBelow(9.6) > 0
		has158 := tr.RegionSizes.FractionBelow(16.0)-tr.RegionSizes.FractionBelow(15.5) > 0
		if !has99 || !has158 {
			t.Fatalf("%s: missing a modal size (9.9=%v 15.8=%v)", tr.Platform, has99, has158)
		}
	}
	// Fig. 5: emulator coherence in the 5-10ms class; the physical device
	// has essentially no coherence copies (unified memory).
	if gae.CoherenceCost.Mean() < 3 || qemu.CoherenceCost.Mean() < 3 {
		t.Fatalf("emulator coherence too cheap: GAE %.2f QEMU %.2f",
			gae.CoherenceCost.Mean(), qemu.CoherenceCost.Mean())
	}
	// The physical device's only copies are real I/O (camera CSI, NIC
	// DMA) into unified memory — far cheaper than emulator coherence.
	if nm := native.CoherenceCost.Mean(); nm > 0.6*gae.CoherenceCost.Mean() {
		t.Fatalf("native copies (%.2f ms) should be far below GAE coherence (%.2f ms)",
			nm, gae.CoherenceCost.Mean())
	}
	// Fig. 6: slack intervals around 10-30ms on every platform, similar
	// across platforms (OS pacing is hardware-independent).
	for _, tr := range res.Traces {
		m := tr.SlackIntervals.Mean()
		if m < 5 || m > 35 {
			t.Fatalf("%s slack mean = %.1f ms, want the ~17ms regime", tr.Platform, m)
		}
	}
	// §2.3: 261-323 HAL calls per second per platform mix.
	for _, tr := range res.Traces {
		if tr.APICallsPerSecond < 100 || tr.APICallsPerSecond > 600 {
			t.Fatalf("%s API calls/s = %.0f, want a few hundred", tr.Platform, tr.APICallsPerSecond)
		}
	}
}

// TestStudyEntryReport: the study entry prints Table 1, the Figs. 4-6
// summaries, then one CDF block per figure, each holding one CDF per
// platform with samples and a "no samples" line for the others.
func TestStudyEntryReport(t *testing.T) {
	e, ok := LookupExperiment("study")
	if !ok || e.InAll || !e.Bench {
		t.Fatalf("study entry: found %v, InAll %v, Bench %v", ok, e.InAll, e.Bench)
	}
	cfg := Config{Duration: 2 * time.Second, AppsPerCategory: 1, Seed: 1}
	text, _, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := RunStudy(cfg)
	for _, summary := range []string{
		"Figure 4: shared memory region sizes (MiB)\n",
		"\nFigure 5: coherence maintenance cost (ms, emulators)\n",
		"\nFigure 6: slack intervals (ms)\n",
	} {
		if !strings.Contains(text, summary) {
			t.Errorf("report lacks summary %q", summary)
		}
	}
	figs := []struct {
		title string
		pick  func(*PlatformTrace) *metrics.Distribution
	}{
		{"Figure 4: shared memory region sizes (MiB)\n\n", func(t *PlatformTrace) *metrics.Distribution { return &t.RegionSizes }},
		{"Figure 5: coherence maintenance cost (ms)\n\n", func(t *PlatformTrace) *metrics.Distribution { return &t.CoherenceCost }},
		{"Figure 6: slack intervals (ms)\n\n", func(t *PlatformTrace) *metrics.Distribution { return &t.SlackIntervals }},
	}
	// The blocks close the report, in figure order.
	starts := make([]int, len(figs)+1)
	for i, f := range figs {
		starts[i] = strings.Index(text, f.title)
		if starts[i] < 0 || i > 0 && starts[i] < starts[i-1] {
			t.Fatalf("report lacks the %q CDF block, or has it out of order", f.title)
		}
	}
	starts[len(figs)] = len(text)
	for i, f := range figs {
		block := text[starts[i]:starts[i+1]]
		points := 0
		for j := range res.Traces {
			tr := &res.Traces[j]
			d := f.pick(tr)
			head := fmt.Sprintf("\n%s: no samples\n", tr.Platform)
			if d.Count() > 0 {
				head = fmt.Sprintf("\n%s (n=%d, mean=%.2f):\n", tr.Platform, d.Count(), d.Mean())
				points += 20
			}
			if n := strings.Count(block, head); n != 1 {
				t.Errorf("%s block: %q appears %d times, want once", strings.TrimSpace(f.title), head, n)
			}
		}
		if n := strings.Count(block, "  F="); n != points {
			t.Errorf("%s block: %d CDF points, want %d (20 per platform with samples)", strings.TrimSpace(f.title), n, points)
		}
	}
}

func TestReportsRenderNonEmpty(t *testing.T) {
	cfg := Quick()
	cfg.AppsPerCategory = 1
	cfg.PopularApps = 3
	for name, s := range map[string]string{
		"table1":   FormatTable1(Table1()),
		"ablation": FormatAblation(RunAblation(cfg)),
		"popular":  FormatPopular(RunPopular(cfg)),
	} {
		if !strings.Contains(s, "\n") || len(s) < 40 {
			t.Fatalf("%s report too short: %q", name, s)
		}
	}
}

// TestRegistryContract runs every entry at a tiny config with `make
// bench`'s -fetch: each prints a report, returns bench metrics exactly
// when it declares Bench, and names them uniquely across the registry
// under its own "<experiment>." prefix. Together they are exactly the
// metrics of the committed baseline, so a renamed or dropped metric fails
// here before it fails the perf gate. Every entry but table1 is Bench, so
// no experiment runs ungated; table1 is pinned by TestTable1MatchesPaper.
func TestRegistryContract(t *testing.T) {
	base, err := ReadBenchReportFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Duration: time.Second, AppsPerCategory: 1, PopularApps: 1, Seed: 1, Fetch: true}
	// The farm scenarios' fleet. and phased. names predate the convention;
	// the committed baseline keeps them.
	legacy := map[string]string{"shardscale": "fleet.", "phasedload": "phased."}
	owner := map[string]string{}
	for _, e := range Registry() {
		if e.Run == nil {
			t.Errorf("%s: no Run", e.Name)
			continue
		}
		text, ms, err := e.Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		if !strings.Contains(text, "\n") || len(text) < 40 {
			t.Errorf("%s: report too short: %q", e.Name, text)
		}
		if (len(ms) > 0) != e.Bench {
			t.Errorf("%s: %d bench metrics, but Bench = %v", e.Name, len(ms), e.Bench)
		}
		if !e.Bench && e.Name != "table1" {
			t.Errorf("%s: not Bench; every experiment but table1 must feed the bench trajectory", e.Name)
		}
		for _, m := range ms {
			if !strings.HasPrefix(m.Name, e.Name+".") &&
				(legacy[e.Name] == "" || !strings.HasPrefix(m.Name, legacy[e.Name])) {
				t.Errorf("%s: metric %s lacks the experiment's prefix", e.Name, m.Name)
			}
			if prev, dup := owner[m.Name]; dup {
				t.Errorf("%s: metric %s already reported by %s", e.Name, m.Name, prev)
			}
			owner[m.Name] = e.Name
			if _, ok := base.Lookup(m.Name); !ok {
				t.Errorf("%s: metric %s is not in BENCH.json; regenerate the baseline", e.Name, m.Name)
			}
		}
	}
	for _, m := range base.Metrics {
		if owner[m.Name] == "" {
			t.Errorf("BENCH.json metric %s is reported by no experiment", m.Name)
		}
	}
}

// TestFig16ProfileExport: the fig16 entry prints its access-latency
// summary once and names no deleted experiment, writes its folded-stack
// profile to Config.ProfilePath and says so after the report; a failed
// write comes back as an error alongside the report text.
func TestFig16ProfileExport(t *testing.T) {
	e, _ := LookupExperiment("fig16")
	cfg := Config{Duration: time.Second, AppsPerCategory: 1, Seed: 1}
	cfg.ProfilePath = filepath.Join(t.TempDir(), "fig16.folded")
	text, _, err := e.Run(cfg)
	if err != nil || !strings.HasSuffix(text, "[folded-stack profile written to "+cfg.ProfilePath+"]\n") {
		t.Fatalf("err %v, report tail %q", err, text[max(0, len(text)-80):])
	}
	if n := strings.Count(text, "p99"); n != 1 {
		t.Errorf("the access-latency summary appears %d times, want once:\n%s", n, text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "micro") {
			t.Errorf("report line names the deleted micro experiment: %q", line)
		}
	}
	if data, err := os.ReadFile(cfg.ProfilePath); err != nil || len(data) == 0 {
		t.Fatalf("folded profile: %d bytes, err %v", len(data), err)
	}
	cfg.ProfilePath = filepath.Join(cfg.ProfilePath, "not-a-dir.folded")
	if text, _, err := e.Run(cfg); err == nil || text == "" {
		t.Fatalf("write under a file: err %v, %d-byte report", err, len(text))
	}
}

func TestServicesShape(t *testing.T) {
	res := RunServices(Quick())
	if res.CallsPerSecond < 100 {
		t.Fatalf("calls/s = %.0f, want a busy trace", res.CallsPerSecond)
	}
	if len(res.Top) < 3 {
		t.Fatalf("top = %+v", res.Top)
	}
	hw := 0.0
	for _, u := range res.Top {
		switch u.Caller {
		case "media-service", "surfaceflinger", "camera-service":
			hw += u.Share
		}
	}
	if hw < 0.6 {
		t.Fatalf("hardware services carry %.0f%%, want dominant (§2.3: 70%%)", hw*100)
	}
	if res.FewSharerFraction < 0.9 {
		t.Fatalf("few-sharer fraction = %.2f, want ~0.99", res.FewSharerFraction)
	}
	if res.CyclicFraction < 0.8 {
		t.Fatalf("cyclic fraction = %.2f, want ~0.96", res.CyclicFraction)
	}
}

func TestProtocolComparisonShape(t *testing.T) {
	res := RunProtocols(Quick())
	pf := res.Of("prefetch")
	wi := res.Of("write-invalidate")
	bc := res.Of("broadcast")
	if pf == nil || wi == nil || bc == nil {
		t.Fatal("missing protocols")
	}
	// The §7 tradeoff space: write-invalidate pays read latency,
	// broadcast pays wasted bandwidth, prefetch pays neither.
	if pf.ReadLatencyMS >= wi.ReadLatencyMS/2 {
		t.Fatalf("prefetch read latency %.2f should be well below write-invalidate %.2f",
			pf.ReadLatencyMS, wi.ReadLatencyMS)
	}
	if bc.WasteFraction <= pf.WasteFraction+0.05 {
		t.Fatalf("broadcast waste %.2f should clearly exceed prefetch %.2f",
			bc.WasteFraction, pf.WasteFraction)
	}
	if bc.CoherenceGiB <= pf.CoherenceGiB {
		t.Fatalf("broadcast moves %.2f GiB, should exceed prefetch %.2f GiB",
			bc.CoherenceGiB, pf.CoherenceGiB)
	}
}

func TestThermalStoryShape(t *testing.T) {
	res := RunThermal(Quick())
	if len(res.GAE) < 8 || len(res.VSoC) < 8 {
		t.Fatalf("buckets: gae=%d vsoc=%d", len(res.GAE), len(res.VSoC))
	}
	if !res.GAEThrottled {
		t.Fatal("GAE video should throttle the laptop (§5.3)")
	}
	if res.VSoCThrottled {
		t.Fatal("vSoC must not throttle the laptop")
	}
	// GAE starts near 30 and collapses; vSoC stays flat near 60.
	if res.GAE[0] < 20 {
		t.Fatalf("GAE first bucket = %.1f, want ~28-32", res.GAE[0])
	}
	last := res.GAE[len(res.GAE)-1]
	if last > res.GAE[0]*0.6 {
		t.Fatalf("GAE should degrade: first %.1f last %.1f", res.GAE[0], last)
	}
	for i, v := range res.VSoC {
		if v < 50 {
			t.Fatalf("vSoC bucket %d = %.1f, want steady ~60", i, v)
		}
	}
}

func TestResolutionSweepShape(t *testing.T) {
	res := RunResolutionSweep(Quick())
	// §5.3: the emulators that stutter at UHD are smooth at 720p — the
	// problem is performance, not functionality.
	for _, emu := range []string{"LDPlayer", "Bluestacks", "Trinity"} {
		low := res.Of(emu, 1280)
		uhd := res.Of(emu, 3840)
		if low == nil || uhd == nil {
			t.Fatalf("%s missing cells", emu)
		}
		if low.FPS < 50 {
			t.Fatalf("%s at 720p = %.1f FPS, want smooth (~60)", emu, low.FPS)
		}
		if uhd.FPS > low.FPS/2 {
			t.Fatalf("%s should collapse at UHD (720p %.1f, UHD %.1f)", emu, low.FPS, uhd.FPS)
		}
	}
	if v := res.Of("vSoC", 3840); v.FPS < 55 {
		t.Fatalf("vSoC UHD = %.1f, want smooth at every resolution", v.FPS)
	}
}
