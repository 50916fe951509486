package experiments

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/faults"
	"repro/internal/hostsim"
)

// fetchDetCfg is detCfg with chunked demand fetches on.
func fetchDetCfg(seed int64, workers int) Config {
	cfg := detCfg(seed, workers)
	cfg.Fetch = true
	return cfg
}

// TestFetchDisabledMatchesCommittedBaseline is the backward half of the
// chunking determinism contract: with FetchConfig off (the default), the
// micro run's bench metrics are byte-identical to the committed PR5
// baseline — the chunking layer adds zero observable behavior when off.
func TestFetchDisabledMatchesCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full bench-parameter micro run")
	}
	base, err := ReadBenchReportFile("../../BENCH_PR5.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	// Exactly the committed `make bench` parameters.
	cfg := Config{Duration: 8 * time.Second, AppsPerCategory: 2, Seed: 1}
	got := NewBenchReport(map[string][]BenchMetric{"micro": MicroBenchMetrics(RunMicro(cfg))})
	if len(got.Metrics) == 0 {
		t.Fatal("micro run produced no metrics")
	}
	for _, m := range got.Metrics {
		want, ok := base.Lookup(m.Name)
		if !ok {
			t.Errorf("metric %s missing from committed baseline", m.Name)
			continue
		}
		if m.Value != want.Value {
			t.Errorf("%s = %.6f, baseline %.6f: disabled chunking must be byte-identical to HEAD",
				m.Name, m.Value, want.Value)
		}
	}
}

// TestSerialPathMatchesCommittedPR6Baseline pins the parallel scheduler's
// no-regression half: the serial scheduler path is untouched, so the micro
// run at the committed bench parameters (chunking on, the PR 6 `make bench`
// line) reproduces BENCH_PR6.json metric for metric.
func TestSerialPathMatchesCommittedPR6Baseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full bench-parameter micro run")
	}
	base, err := ReadBenchReportFile("../../BENCH_PR6.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	// Exactly the committed PR 6 `make bench` parameters.
	cfg := Config{Duration: 8 * time.Second, AppsPerCategory: 2, Seed: 1, Fetch: true}
	got := NewBenchReport(map[string][]BenchMetric{"micro": MicroBenchMetrics(RunMicro(cfg))})
	if len(got.Metrics) == 0 {
		t.Fatal("micro run produced no metrics")
	}
	for _, m := range got.Metrics {
		want, ok := base.Lookup(m.Name)
		if !ok {
			t.Errorf("metric %s missing from committed baseline", m.Name)
			continue
		}
		if m.Value != want.Value {
			t.Errorf("%s = %.6f, baseline %.6f: the serial path must stay byte-identical",
				m.Name, m.Value, want.Value)
		}
	}
}

// TestFetchEnabledDeterminism is the forward half: with chunking on, equal
// seeds produce byte-identical folded exports and reports at any worker
// count and across reruns (the TestProfilerDeterminism pattern).
func TestFetchEnabledDeterminism(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serial := RunMicro(fetchDetCfg(seed, 1))
			parallel := RunMicro(fetchDetCfg(seed, workers))
			if a, b := folded(serial.Report), folded(parallel.Report); a != b {
				t.Errorf("chunked folded export diverges between 1 and %d workers:\n%s\nvs\n%s", workers, a, b)
			}
			if a, b := FormatMicro(serial), FormatMicro(parallel); a != b {
				t.Errorf("chunked micro report diverges between 1 and %d workers:\n%s\nvs\n%s", workers, a, b)
			}
			rerun := RunMicro(fetchDetCfg(seed, 1))
			if a, b := folded(serial.Report), folded(rerun.Report); a != b {
				t.Errorf("chunked folded export diverges across equal-seed runs:\n%s\nvs\n%s", a, b)
			}
			if serial.ChunkedFetches != rerun.ChunkedFetches || serial.FetchJoins != rerun.FetchJoins {
				t.Errorf("chunked counters diverge across equal-seed runs: %d/%d vs %d/%d",
					serial.ChunkedFetches, serial.FetchJoins, rerun.ChunkedFetches, rerun.FetchJoins)
			}
		})
	}
}

// TestFetchEnabledCollapsesSyncCopy pins the optimization's shape: chunking
// on drops the demand-fetch mean well below the monolithic run and demotes
// link:pcie-h2d:sync-copy from the dominant component, while attribution
// coverage stays complete.
func TestFetchEnabledCollapsesSyncCopy(t *testing.T) {
	off := RunMicro(detCfg(1, 0))
	on := RunMicro(fetchDetCfg(1, 0))

	offCS, onCS := off.Report.Classes["demand-fetch"], on.Report.Classes["demand-fetch"]
	if offCS == nil || onCS == nil || offCS.Count == 0 || onCS.Count == 0 {
		t.Fatal("missing demand-fetch class stats")
	}
	offMean := float64(offCS.Total) / float64(offCS.Count)
	onMean := float64(onCS.Total) / float64(onCS.Count)
	if onMean > 0.7*offMean {
		t.Errorf("chunked demand-fetch mean %.3fms not >=30%% below monolithic %.3fms",
			onMean/1e6, offMean/1e6)
	}

	cov, dom := on.Report.ClassCoverage("demand-fetch")
	if cov < 0.95 {
		t.Errorf("chunked demand-fetch coverage = %.3f, want >= 0.95", cov)
	}
	if dom == "link:pcie-h2d:sync-copy" {
		t.Error("sync-copy still dominates the chunked demand-fetch breakdown")
	}
	if sync := onCS.Comps["link:pcie-h2d:sync-copy"]; 2*sync > onCS.Total {
		t.Errorf("sync-copy share %.1f%% still a majority with chunking on",
			float64(sync)/float64(onCS.Total)*100)
	}
	if on.ChunkedFetches == 0 {
		t.Error("no chunked fetches recorded with chunking on")
	}
}

// TestChunkedChaosRecovers runs the fault-injection sweep's link faults
// against a chunking-enabled emulator: DMA loss on the chunked path is
// re-driven (visible as retries) and FPS converges back to baseline after
// every fault clears, within the standard 5% tolerance.
func TestChunkedChaosRecovers(t *testing.T) {
	p := emulator.VSoCNoPrefetch()
	p.Name = "vSoC-chunked"
	p.Fetch = hostsim.EnabledFetch()
	classes := []faults.Class{faults.ClassDMALoss, faults.ClassLinkCollapse}
	r := RunRobustnessOn(Quick(), HighEnd, []emulator.Preset{p}, classes)
	if len(r.Cells) != len(classes) {
		t.Fatalf("got %d cells, want %d", len(r.Cells), len(classes))
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		name := c.Emulator + "/" + string(c.Fault)
		if c.BaselineFPS <= 0 {
			t.Errorf("%s: baseline FPS %.1f, want > 0", name, c.BaselineFPS)
			continue
		}
		tol := math.Max(0.05*c.BaselineFPS, 0.5)
		if math.Abs(c.RecoveredFPS-c.BaselineFPS) > tol {
			t.Errorf("%s: did not converge back to baseline: base %.1f, recovered %.1f",
				name, c.BaselineFPS, c.RecoveredFPS)
		}
	}
	if c := r.Cell("vSoC-chunked", faults.ClassDMALoss); c == nil || c.DMARetries == 0 {
		t.Error("chunked dma-loss: no DMA retries recorded")
	}
}

// TestFetchPipeSweepShape checks the sweep runner end to end at a small
// config: the off row reproduces the monolithic shape, every chunked row
// beats it, and the formatter renders all rows.
func TestFetchPipeSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-setting sweep")
	}
	cfg := detCfg(1, 0)
	r := RunFetchPipe(cfg)
	if len(r.Rows) != len(fetchPipeSettings()) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(fetchPipeSettings()))
	}
	off := r.Rows[0]
	if off.Label != "off" || off.ChunkedFetches != 0 {
		t.Fatalf("first row should be the monolithic baseline, got %+v", off)
	}
	if off.SyncSharePct < 50 {
		t.Errorf("baseline sync-copy share %.1f%%, want majority", off.SyncSharePct)
	}
	for _, row := range r.Rows[1:] {
		if row.ChunkedFetches == 0 {
			t.Errorf("%s: no chunked fetches", row.Label)
		}
		if row.DemandFetchMeanMS >= off.DemandFetchMeanMS {
			t.Errorf("%s: fetch mean %.3f not below baseline %.3f",
				row.Label, row.DemandFetchMeanMS, off.DemandFetchMeanMS)
		}
		if row.SyncSharePct >= off.SyncSharePct {
			t.Errorf("%s: sync share %.1f%% not below baseline %.1f%%",
				row.Label, row.SyncSharePct, off.SyncSharePct)
		}
	}
	out := FormatFetchPipe(r)
	if len(out) == 0 {
		t.Fatal("empty fetchpipe report")
	}
}
