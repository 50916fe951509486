package experiments

import (
	"fmt"
	"strings"

	"repro/internal/emulator"
	"repro/internal/hostsim"
)

// FetchPipeRow is one chunk-size setting of the chunked demand-fetch sweep
// (DESIGN.md §11) on the Fig. 16 workload.
type FetchPipeRow struct {
	// Label names the setting; ChunkKiB is its chunk size (0 = chunking
	// off, the monolithic synchronous baseline).
	Label    string
	ChunkKiB int64

	// Access latency and critical-path metrics (same projection the bench
	// trajectory carries).
	AccessMeanMS      float64
	AccessP99MS       float64
	DemandFetchMeanMS float64
	FrameCritMeanMS   float64

	// SyncSharePct is the synchronous copy's share of named demand-fetch
	// latency — the ~93% column chunking exists to collapse.
	SyncSharePct float64
	// Dominant is the largest component of the demand-fetch class table.
	Dominant string

	DemandFetches  int
	ChunkedFetches int
	FetchJoins     int
}

// FetchPipeResult is the `-exp fetchpipe` report.
type FetchPipeResult struct {
	Rows []FetchPipeRow
}

// fetchPipeSettings is the sweep: chunking off, then chunk sizes around the
// default. All chunked settings keep the default 64 KiB promotion threshold
// and 4-deep descriptor batches.
func fetchPipeSettings() []struct {
	Label string
	Fetch hostsim.FetchConfig
} {
	return []struct {
		Label string
		Fetch hostsim.FetchConfig
	}{
		{"off", hostsim.FetchConfig{}},
		{"64KiB", hostsim.FetchConfig{Enabled: true, ChunkBytes: 64 * hostsim.KiB}.Resolved()},
		{"256KiB", hostsim.EnabledFetch()},
		{"1MiB", hostsim.FetchConfig{Enabled: true, ChunkBytes: hostsim.MiB}.Resolved()},
		{"4MiB", hostsim.FetchConfig{Enabled: true, ChunkBytes: 4 * hostsim.MiB}.Resolved()},
	}
}

// RunFetchPipe sweeps the chunked demand-fetch pipeline across chunk sizes
// on the Fig. 16 workload (write-invalidate video: every read is a demand
// fetch). Each setting is the full micro run, so the rows carry the same
// attribution metrics the bench trajectory tracks.
func RunFetchPipe(cfg Config) *FetchPipeResult {
	settings := fetchPipeSettings()
	rows := make([]FetchPipeRow, len(settings))
	// Each micro run fans its sessions out internally, so the sweep itself
	// stays sequential.
	for i, s := range settings {
		preset := emulator.VSoCNoPrefetch()
		preset.Fetch = s.Fetch
		r := runMicroPreset(cfg, preset, true)
		row := FetchPipeRow{
			Label:          s.Label,
			AccessMeanMS:   r.Fig16.MeanMS,
			AccessP99MS:    r.Fig16.P99MS,
			DemandFetches:  r.DemandFetches,
			ChunkedFetches: r.ChunkedFetches,
			FetchJoins:     r.FetchJoins,
		}
		if s.Fetch.Enabled {
			row.ChunkKiB = int64(s.Fetch.ChunkBytes / hostsim.KiB)
		}
		if r.Report.Frames > 0 {
			row.FrameCritMeanMS = float64(r.Report.Total.Milliseconds()) / float64(r.Report.Frames)
		}
		if cs := r.Report.Classes["demand-fetch"]; cs != nil && cs.Count > 0 {
			row.DemandFetchMeanMS = float64(cs.Total.Microseconds()) / 1000 / float64(cs.Count)
			var named, sync int64
			for comp, d := range cs.Comps {
				named += int64(d)
				if strings.HasSuffix(comp, ":sync-copy") {
					sync += int64(d)
				}
			}
			if named > 0 {
				row.SyncSharePct = float64(sync) / float64(named) * 100
			}
		}
		_, row.Dominant = r.Report.ClassCoverage("demand-fetch")
		rows[i] = row
	}
	return &FetchPipeResult{Rows: rows}
}

// FormatFetchPipe renders the sweep as a table with the baseline deltas.
func FormatFetchPipe(r *FetchPipeResult) string {
	var b strings.Builder
	b.WriteString("Chunked demand-fetch sweep (Fig. 16 workload, DESIGN.md §11):\n")
	b.WriteString("  setting   chunk   access mean   access p99   fetch mean   frame crit   sync-copy%   fetches  chunked   joins   dominant\n")
	var base FetchPipeRow
	for i, row := range r.Rows {
		if i == 0 {
			base = row
		}
		delta := ""
		if i > 0 && base.DemandFetchMeanMS > 0 {
			delta = fmt.Sprintf(" (%+.1f%%)",
				(row.DemandFetchMeanMS-base.DemandFetchMeanMS)/base.DemandFetchMeanMS*100)
		}
		chunk := "-"
		if row.ChunkKiB > 0 {
			chunk = fmt.Sprintf("%dK", row.ChunkKiB)
		}
		fmt.Fprintf(&b, "  %-9s %-7s %8.3f ms   %7.3f ms   %7.3f ms%s   %7.3f ms   %9.1f   %7d  %7d  %6d   %s\n",
			row.Label, chunk, row.AccessMeanMS, row.AccessP99MS,
			row.DemandFetchMeanMS, delta, row.FrameCritMeanMS, row.SyncSharePct,
			row.DemandFetches, row.ChunkedFetches, row.FetchJoins, row.Dominant)
	}
	return b.String()
}
