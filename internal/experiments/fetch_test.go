package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/faults"
	"repro/internal/hostsim"
	"repro/internal/svm"
	"repro/internal/workload"
)

// fetchDetCfg is detCfg with chunked demand fetches on.
func fetchDetCfg(seed int64, workers int) Config {
	cfg := detCfg(seed, workers)
	cfg.Fetch = true
	return cfg
}

// matchFig16Baseline runs the registry's fig16 entry at cfg and checks
// every metric of the committed baseline at path against the run's. The
// baseline predates fig16.access_latency_max_ms, which it therefore does
// not pin.
func matchFig16Baseline(t *testing.T, path string, cfg Config) {
	t.Helper()
	if testing.Short() {
		t.Skip("full bench-parameter fig16 run")
	}
	base, err := ReadBenchReportFile(path)
	if err != nil || len(base.Metrics) == 0 {
		t.Fatalf("reading committed baseline: %d metrics, err %v", len(base.Metrics), err)
	}
	e, _ := LookupExperiment("fig16")
	_, ms, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("fig16 run: %v", err)
	}
	got := NewBenchReport(map[string][]BenchMetric{"fig16": ms})
	for _, want := range base.Metrics {
		if m, ok := got.Lookup(want.Name); !ok {
			t.Errorf("fig16 run lacks %s, which %s holds", want.Name, path)
		} else if m.Value != want.Value {
			t.Errorf("%s = %.6f, %s holds %.6f: the run must stay byte-identical", m.Name, m.Value, path, want.Value)
		}
	}
}

// TestFetchDisabledMatchesCommittedBaseline is the backward half of the
// chunking determinism contract: with FetchConfig off (the default), the
// Fig. 16 run's bench metrics are byte-identical to the committed PR5
// baseline — the chunking layer adds zero observable behavior when off.
func TestFetchDisabledMatchesCommittedBaseline(t *testing.T) {
	// Exactly the committed PR 5 `make bench` parameters.
	matchFig16Baseline(t, "testdata/BENCH_PR5.json",
		Config{Duration: 8 * time.Second, AppsPerCategory: 2, Seed: 1})
}

// TestSerialPathMatchesCommittedPR6Baseline pins the parallel scheduler's
// no-regression half: the serial scheduler path is untouched, so the Fig. 16
// run at the committed bench parameters (chunking on, the PR 6 `make bench`
// line) reproduces BENCH_PR6.json metric for metric.
func TestSerialPathMatchesCommittedPR6Baseline(t *testing.T) {
	matchFig16Baseline(t, "testdata/BENCH_PR6.json",
		Config{Duration: 8 * time.Second, AppsPerCategory: 2, Seed: 1, Fetch: true})
}

// TestFetchEnabledDeterminism is the forward half: with chunking on, equal
// seeds produce byte-identical folded exports and reports at any worker
// count and across reruns (the TestProfilerDeterminism pattern).
func TestFetchEnabledDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fig16Runs(t, fetchDetCfg, seed)
			sc, sj := fetchCounts(fetchDetCfg(seed, 1))
			rc, rj := fetchCounts(fetchDetCfg(seed, 1))
			if sc != rc || sj != rj {
				t.Errorf("chunked counters diverge across equal-seed runs: %d/%d vs %d/%d", sc, sj, rc, rj)
			}
		})
	}
}

// TestFetchEnabledCollapsesSyncCopy pins the optimization's shape: chunking
// on drops the demand-fetch mean well below the monolithic run and demotes
// link:pcie-h2d:sync-copy from the dominant component, while attribution
// coverage stays complete.
func TestFetchEnabledCollapsesSyncCopy(t *testing.T) {
	offCfg, onCfg := detCfg(1, 0), fetchDetCfg(1, 0)
	off, on := RunFig16(offCfg, fig16Preset(offCfg)), RunFig16(onCfg, fig16Preset(onCfg))

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
	if chunked, _ := fetchCounts(fetchDetCfg(1, 0)); chunked == 0 {
		t.Error("no chunked fetches recorded with chunking on")
	}
}

// fetchCounts sums the chunked-fetch counters of the Fig. 16 sessions at
// cfg: chunked demand fetches, and readers that joined a running one.
func fetchCounts(cfg Config) (chunked, joins int) {
	cells := appCells(cfg, fig16Preset(cfg), HighEnd, 500, videoCats)
	sts := sweep(cfg, cells, func(s *workload.Session, _ *workload.Result) *svm.Stats { return s.SVMStats() })
	for _, st := range sts {
		if st != nil {
			chunked += st.ChunkedFetches
			joins += st.FetchJoins
		}
	}
	return chunked, joins
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
