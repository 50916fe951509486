package tune

import (
	"fmt"

	"repro/internal/hostsim"
)

// The knob registry. Every knob declared here must be named in DESIGN.md
// §14 — cmd/docscheck enforces that at the same name level as its
// path-reference lint. Level values are plain float64s; the Set closures
// own their interpretation (KiB, counts).

// Knob names, referenced by the space below, DESIGN.md §14, and tests.
const (
	KnobFetchChunk        = "fetch.chunk_kib"
	KnobFetchDMAThreshold = "fetch.dma_threshold_kib"
	KnobFetchMaxInflight  = "fetch.max_inflight"
)

func fmtKiB(v float64) string {
	if v == 0 {
		return "off"
	}
	return fmt.Sprintf("%gKiB", v)
}

// FetchSpace returns the one search space, the same for every preset: the
// §11 chunked demand-fetch pipeline. Level 0 of the chunk knob keeps the
// monolithic synchronous copy path (the shipped default), under which the
// other two knobs are never read.
func FetchSpace() Space {
	return Space{Knobs: []Knob{
		{Name: KnobFetchChunk, Levels: []float64{0, 64, 256, 1024, 4096}, Default: 0,
			Format: fmtKiB,
			Set:    func(c *hostsim.FetchConfig, v float64) { c.ChunkBytes = hostsim.Bytes(v) * hostsim.KiB }},
		{Name: KnobFetchDMAThreshold, Levels: []float64{16, 64, 256}, Default: 1,
			Format: fmtKiB,
			Set:    func(c *hostsim.FetchConfig, v float64) { c.DMAThreshold = hostsim.Bytes(v) * hostsim.KiB }},
		{Name: KnobFetchMaxInflight, Levels: []float64{2, 4, 8, 16}, Default: 1,
			Set: func(c *hostsim.FetchConfig, v float64) { c.MaxInflight = int(v) }},
	}}
}
