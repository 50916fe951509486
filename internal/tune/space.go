package tune

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/hostsim"
	"repro/internal/svm"
)

// The knob registry. Every knob declared here must be named in DESIGN.md
// §14 — cmd/docscheck enforces that at the same name level as its
// path-reference lint. Level values are plain float64s; the Set closures
// own their interpretation (milliseconds, KiB, counts, fractions).

// Knob names, referenced by the spaces below, DESIGN.md §14, and tests.
const (
	KnobFetchChunk        = "fetch.chunk_kib"
	KnobFetchDMAThreshold = "fetch.dma_threshold_kib"
	KnobFetchMaxInflight  = "fetch.max_inflight"
	KnobPrefetchFailLimit = "prefetch.failure_limit"
	KnobPrefetchBWFloor   = "prefetch.bandwidth_floor"
	KnobPrefetchSuspendMS = "prefetch.suspend_ms"
)

func fmtMS(v float64) string { return fmt.Sprintf("%gms", v) }

func fmtKiB(v float64) string {
	if v == 0 {
		return "off"
	}
	return fmt.Sprintf("%gKiB", v)
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// fetchKnobs tunes the §11 chunked demand-fetch pipeline. Level 0 of the
// chunk knob keeps the monolithic synchronous copy path (the shipped
// default).
func fetchKnobs() []Knob {
	return []Knob{
		{Name: KnobFetchChunk, Levels: []float64{0, 64, 256, 1024, 4096}, Default: 0,
			Format: fmtKiB,
			Set: func(t *experiments.Tunable, v float64) {
				if v == 0 {
					t.Fetch.Enabled = false
					return
				}
				t.Fetch.Enabled = true
				t.Fetch.ChunkBytes = hostsim.Bytes(v) * hostsim.KiB
			}},
		{Name: KnobFetchDMAThreshold, Levels: []float64{16, 64, 256}, Default: 1,
			Format: fmtKiB,
			Set: func(t *experiments.Tunable, v float64) {
				t.Fetch.DMAThreshold = hostsim.Bytes(v) * hostsim.KiB
			}},
		{Name: KnobFetchMaxInflight, Levels: []float64{2, 4, 8, 16}, Default: 1,
			Set: func(t *experiments.Tunable, v float64) { t.Fetch.MaxInflight = int(v) }},
	}
}

// prefetchKnobs tunes the §3.3 suspension heuristics of the prefetch
// engine (meaningful only on prefetch-protocol presets).
func prefetchKnobs() []Knob {
	return []Knob{
		{Name: KnobPrefetchFailLimit, Levels: []float64{2, 3, 5}, Default: 1,
			Set: func(t *experiments.Tunable, v float64) { t.Prefetch.FailureLimit = int(v) }},
		{Name: KnobPrefetchBWFloor, Levels: []float64{0.3, 0.5, 0.7}, Default: 1,
			Set: func(t *experiments.Tunable, v float64) { t.Prefetch.BandwidthFloor = v }},
		{Name: KnobPrefetchSuspendMS, Levels: []float64{20, 50, 100}, Default: 1,
			Format: fmtMS,
			Set:    func(t *experiments.Tunable, v float64) { t.Prefetch.SuspendFor = ms(v) }},
	}
}

// SpaceFor returns the search space for a preset, most impactful axis
// first (axis-grid seeding walks the knobs in order, so a truncated budget
// still probes the dimensions that move the objective). Every preset
// searches the fetch pipeline first — the objective is the demand-fetch
// mean, and prefetch misses still demand-fetch — and prefetch presets add
// the engine's suspension knobs after it.
func SpaceFor(kind svm.Kind) Space {
	if kind == svm.KindPrefetch {
		return Space{Knobs: append(fetchKnobs(), prefetchKnobs()...)}
	}
	return Space{Knobs: fetchKnobs()}
}

// AllKnobs returns the union of every registered knob in declaration
// order, one entry per name. cmd/docscheck iterates this to lint that
// DESIGN.md names each knob.
func AllKnobs() []Knob {
	var all []Knob
	seen := map[string]bool{}
	for _, ks := range [][]Knob{fetchKnobs(), prefetchKnobs()} {
		for _, k := range ks {
			if !seen[k.Name] {
				seen[k.Name] = true
				all = append(all, k)
			}
		}
	}
	return all
}
