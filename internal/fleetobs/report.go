package fleetobs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// This file renders the two run summaries: Report, the deterministic fleet
// aggregate (virtual-time quantities only — byte-identical text and JSON
// for equal seeds), and StallReport, the wall-clock split of the window
// loop (never deterministic, and therefore kept out of Report entirely).

// ReportSchema versions the fleet report JSON.
const ReportSchema = 2

// stragglerK flags a tenant whose tail p99 exceeds K times the fleet
// median p99 (computed independently for motion-to-photon and demand-fetch
// pools).
const stragglerK = 1.5

// TenantReport is one guest's QoS summary.
type TenantReport struct {
	Name  string `json:"name"`
	Index int    `json:"index"`

	Frames  uint64  `json:"frames"`
	Drops   uint64  `json:"drops"`
	MeanFPS float64 `json:"mean_fps"`

	FPSFloor        float64 `json:"fps_floor"`
	FloorAttainment float64 `json:"floor_attainment"` // fraction of whole seconds at/above floor
	FloorViolations int     `json:"floor_violation_seconds"`

	M2PSLOMS      float64 `json:"m2p_slo_ms"`
	M2PAttainment float64 `json:"m2p_attainment"` // fraction of samples within SLO
	M2PViolations uint64  `json:"m2p_violations"`
	M2PCount      uint64  `json:"m2p_count"`
	M2PP50MS      float64 `json:"m2p_p50_ms"`
	M2PP95MS      float64 `json:"m2p_p95_ms"`
	M2PP99MS      float64 `json:"m2p_p99_ms"`

	FetchCount uint64  `json:"fetch_count"`
	FetchP50MS float64 `json:"fetch_p50_ms"`
	FetchP95MS float64 `json:"fetch_p95_ms"`
	FetchP99MS float64 `json:"fetch_p99_ms"`

	Straggler bool `json:"straggler"`
}

// SchedReport summarizes the farm's window loop.
type SchedReport struct {
	Windows         int     `json:"windows"`
	FinalWindows    int     `json:"final_windows"`
	LookaheadUtil   float64 `json:"lookahead_util"` // advanced / horizon
	Events          uint64  `json:"events"`
	EventsPerWindow float64 `json:"events_per_window"`
}

// HostReport summarizes the shared-host arbiter's window sequence.
type HostReport struct {
	Windows     int     `json:"windows"`
	DemandBytes int64   `json:"demand_bytes"`
	BusyMS      float64 `json:"busy_ms"`
	MeanScale   float64 `json:"mean_scale"`
	MinScale    float64 `json:"min_scale"`
}

// FleetTails is the cross-tenant aggregate: merged tail percentiles and
// mean attainment.
type FleetTails struct {
	MeanFPS         float64  `json:"mean_fps"`
	FloorAttainment float64  `json:"floor_attainment"`
	SLOAttainment   float64  `json:"slo_attainment"` // mean of per-tenant min(floor, m2p) attainment
	M2PP50MS        float64  `json:"m2p_p50_ms"`
	M2PP95MS        float64  `json:"m2p_p95_ms"`
	M2PP99MS        float64  `json:"m2p_p99_ms"`
	FetchP50MS      float64  `json:"fetch_p50_ms"`
	FetchP95MS      float64  `json:"fetch_p95_ms"`
	FetchP99MS      float64  `json:"fetch_p99_ms"`
	StragglerK      float64  `json:"straggler_k"`
	Stragglers      []string `json:"stragglers"`
}

// Report is the deterministic fleet aggregate. Its text and JSON renderings
// are byte-identical for equal seeds; nothing in it may derive from the
// host's wall clock.
type Report struct {
	Schema     int            `json:"schema"`
	Guests     int            `json:"guests"`
	DurationMS float64        `json:"duration_ms"`
	Sched      SchedReport    `json:"sched"`
	Host       HostReport     `json:"host"`
	Fleet      FleetTails     `json:"fleet"`
	Tenants    []TenantReport `json:"tenants"`
}

// round6 squashes non-finite values and rounds to 6 decimals, matching the
// bench-report convention so report bytes never wobble in the last ulp.
func round6(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

// ratio returns num/den with a defined empty case.
func ratio(num, den float64, empty float64) float64 {
	if den == 0 {
		return empty
	}
	return num / den
}

// median returns the median of vs (sorted copy; mean of the middle pair
// for even counts). 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Report assembles the deterministic fleet aggregate for a run that ended
// at virtual instant end.
func (f *Fleet) Report(end time.Duration) *Report {
	r := &Report{
		Schema:     ReportSchema,
		Guests:     len(f.tenants),
		DurationMS: round6(float64(end) / 1e6),
	}
	r.Sched = SchedReport{
		Windows:         f.windows,
		FinalWindows:    f.finalWindows,
		LookaheadUtil:   round6(ratio(float64(f.advanced), float64(f.horizon), 0)),
		Events:          f.events,
		EventsPerWindow: round6(ratio(float64(f.events), float64(f.windows), 0)),
	}
	minScale := f.hostMinScale
	if f.hostWindows == 0 {
		minScale = 1
	}
	r.Host = HostReport{
		Windows:     f.hostWindows,
		DemandBytes: int64(f.hostDemand),
		BusyMS:      round6(float64(f.hostBusy) / 1e6),
		MeanScale:   round6(ratio(f.hostScaleSum, float64(f.hostWindows), 1)),
		MinScale:    round6(minScale),
	}

	secs := float64(end) / float64(time.Second)
	var m2pAll, fetchAll LogHistogram
	var fpsSum, floorSum, sloSum float64
	rows := make([]TenantReport, 0, len(f.tenants))
	for _, t := range f.tenants {
		tr := TenantReport{
			Name:   t.cfg.Name,
			Index:  t.index,
			Frames: t.frames,
			Drops:  t.drops,

			FPSFloor: t.cfg.FPSFloor,

			M2PSLOMS:      round6(float64(t.cfg.M2PSLO) / 1e6),
			M2PViolations: t.m2pViol,
			M2PCount:      t.m2p.Count(),
			M2PP50MS:      round6(t.m2p.Percentile(50)),
			M2PP95MS:      round6(t.m2p.Percentile(95)),
			M2PP99MS:      round6(t.m2p.Percentile(99)),

			FetchCount: t.fetch.Count(),
			FetchP50MS: round6(t.fetch.Percentile(50)),
			FetchP95MS: round6(t.fetch.Percentile(95)),
			FetchP99MS: round6(t.fetch.Percentile(99)),
		}
		tr.MeanFPS = round6(ratio(float64(t.frames), secs, 0))
		// Floor attainment over complete seconds; no floor or no complete
		// second means vacuously attained.
		n := wholeSeconds(end)
		if t.cfg.FPSFloor > 0 && n > 0 {
			viol := len(t.floorViolationSeconds(end))
			tr.FloorViolations = viol
			tr.FloorAttainment = round6(float64(n-viol) / float64(n))
		} else {
			tr.FloorAttainment = 1
		}
		// M2P attainment over measured samples; unmeasured (no SLO or no
		// samples) is vacuously attained.
		if t.cfg.M2PSLO > 0 && t.m2p.Count() > 0 {
			tr.M2PAttainment = round6(float64(t.m2p.Count()-t.m2pViol) / float64(t.m2p.Count()))
		} else {
			tr.M2PAttainment = 1
		}
		m2pAll.Merge(&t.m2p)
		fetchAll.Merge(&t.fetch)
		fpsSum += tr.MeanFPS
		floorSum += tr.FloorAttainment
		sloSum += math.Min(tr.FloorAttainment, tr.M2PAttainment)
		rows = append(rows, tr)
	}

	// Straggler detection: a tenant whose tail p99 exceeds K times the
	// fleet median p99, checked independently over the motion-to-photon
	// and demand-fetch pools (only tenants with samples join a pool).
	flag := func(p99 func(tr *TenantReport) float64, count func(tr *TenantReport) uint64) {
		var pool []float64
		for i := range rows {
			if count(&rows[i]) > 0 {
				pool = append(pool, p99(&rows[i]))
			}
		}
		med := median(pool)
		if med <= 0 {
			return
		}
		for i := range rows {
			if count(&rows[i]) > 0 && p99(&rows[i]) > stragglerK*med {
				rows[i].Straggler = true
			}
		}
	}
	flag(func(tr *TenantReport) float64 { return tr.M2PP99MS }, func(tr *TenantReport) uint64 { return tr.M2PCount })
	flag(func(tr *TenantReport) float64 { return tr.FetchP99MS }, func(tr *TenantReport) uint64 { return tr.FetchCount })

	// Stable order: by name, then declaration index for duplicates.
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].Name != rows[b].Name {
			return rows[a].Name < rows[b].Name
		}
		return rows[a].Index < rows[b].Index
	})
	r.Tenants = rows

	nt := float64(len(rows))
	r.Fleet = FleetTails{
		MeanFPS:         round6(ratio(fpsSum, nt, 0)),
		FloorAttainment: round6(ratio(floorSum, nt, 1)),
		SLOAttainment:   round6(ratio(sloSum, nt, 1)),
		M2PP50MS:        round6(m2pAll.Percentile(50)),
		M2PP95MS:        round6(m2pAll.Percentile(95)),
		M2PP99MS:        round6(m2pAll.Percentile(99)),
		FetchP50MS:      round6(fetchAll.Percentile(50)),
		FetchP95MS:      round6(fetchAll.Percentile(95)),
		FetchP99MS:      round6(fetchAll.Percentile(99)),
		StragglerK:      stragglerK,
		Stragglers:      []string{},
	}
	for i := range rows {
		if rows[i].Straggler {
			r.Fleet.Stragglers = append(r.Fleet.Stragglers, rows[i].Name)
		}
	}
	return r
}

// JSON renders the report as stable, indented JSON (fixed field order,
// rounded floats, sorted tenants) with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatText renders the report as an aligned table for the CLI tools.
func (r *Report) FormatText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet report (%d guests, %.1fs virtual):\n", r.Guests, r.DurationMS/1e3)
	fmt.Fprintf(&b, "  sched: %d windows (%d final), lookahead util %.3f, %.0f events/window\n",
		r.Sched.Windows, r.Sched.FinalWindows, r.Sched.LookaheadUtil,
		r.Sched.EventsPerWindow)
	fmt.Fprintf(&b, "  host:  %d windows, %.2f GB demand, %.1f ms busy, scale mean %.3f / min %.3f\n",
		r.Host.Windows, float64(r.Host.DemandBytes)/1e9, r.Host.BusyMS,
		r.Host.MeanScale, r.Host.MinScale)
	fmt.Fprintf(&b, "  %-14s %7s %6s %8s %7s %7s %9s %9s %5s\n",
		"tenant", "fps", "floor%", "m2p_p99", "slo%", "fetches", "fetch_p50", "fetch_p99", "strag")
	for i := range r.Tenants {
		t := &r.Tenants[i]
		strag := ""
		if t.Straggler {
			strag = "YES"
		}
		fmt.Fprintf(&b, "  %-14s %7.2f %6.1f %7.2fms %7.1f %7d %7.2fms %7.2fms %5s\n",
			t.Name, t.MeanFPS, t.FloorAttainment*100, t.M2PP99MS,
			t.M2PAttainment*100, t.FetchCount, t.FetchP50MS, t.FetchP99MS,
			strag)
	}
	fmt.Fprintf(&b, "  fleet: mean %.2f FPS, floor %.1f%%, SLO %.1f%%, m2p p99 %.2f ms, fetch p99 %.2f ms, stragglers (k=%.1f): %s\n",
		r.Fleet.MeanFPS, r.Fleet.FloorAttainment*100, r.Fleet.SLOAttainment*100,
		r.Fleet.M2PP99MS, r.Fleet.FetchP99MS, r.Fleet.StragglerK,
		stragglerList(r.Fleet.Stragglers))
	return b.String()
}

func stragglerList(s []string) string {
	if len(s) == 0 {
		return "none"
	}
	return strings.Join(s, ", ")
}

// StallShard is one row of the per-shard barrier-stall table. The farm
// loop runs on one goroutine and keeps no such table, so StallReport.Shards
// is always empty; the type remains only because the benchmark module
// still sums the rows (its sim.barrier_stall_frac then reads 0).
type StallShard struct {
	Barrier time.Duration // time parked waiting for the slowest shard
}

// StallReport is the wall-clock split of the window loop's host time:
// earliest-event scan, environments executing, and arbitration (barrier
// hooks), summed over windows. Host measurements only — never
// deterministic.
type StallReport struct {
	Windows  int
	WallScan time.Duration
	WallExec time.Duration
	WallArb  time.Duration
	Shards   []StallShard // always empty: see StallShard
}

// StallReport snapshots the wall-clock split accumulated so far.
func (f *Fleet) StallReport() *StallReport {
	return &StallReport{
		Windows:  f.windows,
		WallScan: f.wallScan,
		WallExec: f.wallExec,
		WallArb:  f.wallArb,
	}
}

// Total returns the wall time the window loop spent (scan + execute +
// arbitrate).
func (r *StallReport) Total() time.Duration {
	return r.WallScan + r.WallExec + r.WallArb
}

// FormatText renders the split. Wall-clock: useful for diagnosing a run,
// excluded from every determinism contract.
func (r *StallReport) FormatText() string {
	return fmt.Sprintf("Window-loop wall time (%d windows, %.1f ms): exec %.1f ms, arb %.1f ms, scan %.1f ms\n",
		r.Windows, float64(r.Total())/1e6, float64(r.WallExec)/1e6,
		float64(r.WallArb)/1e6, float64(r.WallScan)/1e6)
}
