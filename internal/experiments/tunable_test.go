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

// RunTuneEval is the tuner's measurement probe: equal (preset, tunable,
// seed) must produce byte-identical metrics at every worker count, or the
// search trajectory would depend on the machine it runs on.
func TestRunTuneEvalDeterministic(t *testing.T) {
	p := emulator.VSoCNoPrefetch()
	tn := TunableOf(p)
	serial := RunTuneEval(tuneTestConfig(1), p, tn)
	if len(serial) == 0 {
		t.Fatalf("no metrics")
	}
	for _, workers := range []int{1, 4} {
		got := RunTuneEval(tuneTestConfig(workers), p, tn)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d drifted from serial:\n%v\n%v", workers, serial, got)
		}
	}
}

// A tunable change must actually reach the simulation: enabling the chunked
// fetch pipeline moves the demand-fetch critical-path mean.
func TestRunTuneEvalRespondsToTunable(t *testing.T) {
	p := emulator.VSoCNoPrefetch()
	base := TunableOf(p)
	if base.Fetch.Enabled {
		t.Fatalf("vSoC-noprefetch should ship with chunked fetch off")
	}
	chunked := base
	chunked.Fetch = hostsim.EnabledFetch()

	cfg := tuneTestConfig(0)
	before := Metrics(RunTuneEval(cfg, p, base))
	after := Metrics(RunTuneEval(cfg, p, chunked))
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

func TestTunableRoundTrip(t *testing.T) {
	p := emulator.VSoC()
	tn := TunableOf(p)
	if !reflect.DeepEqual(tn.ApplyTo(p), p) {
		t.Fatalf("TunableOf/ApplyTo is not the identity on the shipped preset")
	}
	tn.Fetch.Enabled = true
	tn.Fetch.ChunkBytes = 3 * hostsim.MiB
	tn.Prefetch.FailureLimit = 9
	q := tn.ApplyTo(p)
	if !q.Fetch.Enabled || q.Fetch.ChunkBytes != 3*hostsim.MiB {
		t.Fatalf("fetch knobs not applied: %+v", q.Fetch)
	}
	if q.SVM.Prefetch.FailureLimit != 9 {
		t.Fatalf("prefetch knobs not applied: %+v", q.SVM.Prefetch)
	}
}
