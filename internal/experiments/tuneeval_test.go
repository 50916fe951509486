package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
)

func tuneTestConfig(workers int) Config {
	return Config{
		Duration:        time.Second,
		AppsPerCategory: 2,
		Seed:            1,
		Workers:         workers,
	}
}

// RunTuneEval is the tuner's measurement probe: equal (preset, fetch
// config, seed) must produce byte-identical metrics at every worker count,
// or the search's choice would depend on the machine it runs on.
func TestRunTuneEvalDeterministic(t *testing.T) {
	p := emulator.VSoCNoPrefetch()
	serial := RunTuneEval(tuneTestConfig(1), p, p.Fetch)
	if len(serial) == 0 {
		t.Fatalf("no metrics")
	}
	for _, workers := range []int{1, 4} {
		got := RunTuneEval(tuneTestConfig(workers), p, p.Fetch)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d drifted from serial:\n%v\n%v", workers, serial, got)
		}
	}
}

// A fetch config must actually reach the simulation: enabling the chunked
// fetch pipeline moves the demand-fetch critical-path mean.
func TestRunTuneEvalRespondsToTunable(t *testing.T) {
	p := emulator.VSoCNoPrefetch()
	if p.Fetch.Enabled() {
		t.Fatalf("vSoC-noprefetch should ship with chunked fetch off")
	}

	cfg := tuneTestConfig(0)
	before := Metrics(RunTuneEval(cfg, p, p.Fetch))
	after := Metrics(RunTuneEval(cfg, p, hostsim.EnabledFetch()))
	bm, am := before.value(TuneDemandFetchMean), after.value(TuneDemandFetchMean)
	if bm == 0 || am == 0 {
		t.Fatalf("demand-fetch mean missing: before=%v after=%v", bm, am)
	}
	if am >= bm {
		t.Fatalf("chunked fetches did not improve demand-fetch mean: %v -> %v", bm, am)
	}
}

// Metrics is a local sorted view for test lookups.
type Metrics []BenchMetric

func (m Metrics) value(name string) float64 {
	for _, bm := range m {
		if bm.Name == name {
			return bm.Value
		}
	}
	return 0
}
