package tsmon

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"strings"
)

// MonReportSchema versions the monitor report encoding.
const MonReportSchema = 2

// TenantMeta describes one tenant in the report header.
type TenantMeta struct {
	Name     string   `json:"name"`
	FPSFloor float64  `json:"fps_floor,omitempty"`
	M2PSLOMS float64  `json:"m2p_slo_ms,omitempty"`
	Probes   []string `json:"probes,omitempty"`
	// Frames and Drops are the run totals, counted as samples arrive, so
	// evicted windows and samples at the final bound still count.
	Frames uint64 `json:"frames"`
	Drops  uint64 `json:"drops"`
	// Run-long demand-fetch / motion-to-photon tails, merged from every
	// sealed window's log-scale histogram (ms).
	FetchP99MS float64 `json:"fetch_p99_ms"`
	M2PP99MS   float64 `json:"m2p_p99_ms"`
}

// DetectorMeta describes one registered detector in the report header.
type DetectorMeta struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	Signal string `json:"signal"`
}

// MonReport is the machine-readable monitor report: header, the retained
// window series, and the incident log. It is a pure function of the
// simulation — equal seeds give byte-identical JSON at every worker count
// — and Digest fingerprints the whole encoding.
type MonReport struct {
	Schema   int     `json:"schema"`
	WindowMS float64 `json:"window_ms"`
	// Sealed counts every window ever sealed; Windows holds the retained
	// ring (the Sealed-len(Windows) oldest were evicted).
	Sealed    int            `json:"sealed"`
	Tenants   []TenantMeta   `json:"tenants"`
	Detectors []DetectorMeta `json:"detectors"`
	Windows   []Window       `json:"windows"`
	Incidents []Incident     `json:"incidents"`
	Digest    string         `json:"digest"`
}

// Report assembles the monitor's current state into a report.
func (m *Monitor) Report() *MonReport {
	r := &MonReport{
		Schema:    MonReportSchema,
		WindowMS:  ms(WindowWidth),
		Sealed:    m.sealed,
		Windows:   m.Windows(),
		Incidents: m.Incidents(),
	}
	if r.Windows == nil {
		r.Windows = []Window{}
	}
	if r.Incidents == nil {
		r.Incidents = []Incident{}
	}
	for ti, t := range m.tenants {
		tm := TenantMeta{
			Name:       t.cfg.Name,
			FPSFloor:   t.cfg.FPSFloor,
			M2PSLOMS:   ms(t.cfg.M2PSLO),
			Frames:     t.frames,
			Drops:      t.drops,
			FetchP99MS: round6(m.cumFetch[ti].Percentile(99)),
			M2PP99MS:   round6(m.cumM2P[ti].Percentile(99)),
		}
		for _, p := range t.probes {
			tm.Probes = append(tm.Probes, p.name)
		}
		r.Tenants = append(r.Tenants, tm)
	}
	for i := range m.specs {
		s := &m.specs[i]
		r.Detectors = append(r.Detectors, DetectorMeta{
			Name: s.Name, Class: string(s.Class), Signal: s.Signal,
		})
	}
	r.Digest = r.computeDigest()
	return r
}

// computeDigest fingerprints the report: FNV-1a over the JSON encoding
// with the digest field blanked.
func (r *MonReport) computeDigest() string {
	saved := r.Digest
	r.Digest = ""
	data, err := json.Marshal(r)
	r.Digest = saved
	if err != nil {
		return "error"
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteJSON writes the report as indented JSON.
func (r *MonReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path.
func (r *MonReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport loads a monitor report written by WriteJSONFile.
func ReadReport(path string) (*MonReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r MonReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != MonReportSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, r.Schema, MonReportSchema)
	}
	return &r, nil
}

// IncidentsByClass counts incidents per detector class.
func (r *MonReport) IncidentsByClass() map[string]int {
	out := map[string]int{}
	for i := range r.Incidents {
		out[r.Incidents[i].Class]++
	}
	return out
}

// FormatText renders a one-screen summary: the run header, per-tenant
// aggregates, and the incident timeline.
func (r *MonReport) FormatText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Monitor: %d window(s) of %.0f ms sealed (%d retained), %d incident(s), digest %s\n",
		r.Sealed, r.WindowMS, len(r.Windows), len(r.Incidents), r.Digest)
	for ti := range r.Tenants {
		t := &r.Tenants[ti]
		fmt.Fprintf(&b, "  tenant %-24s frames=%d drops=%d fetch_p99=%.2fms m2p_p99=%.2fms\n",
			t.Name, t.Frames, t.Drops, t.FetchP99MS, t.M2PP99MS)
	}
	if len(r.Incidents) == 0 {
		b.WriteString("  no incidents\n")
		return b.String()
	}
	b.WriteString("  seq   at        class       detector         tenant                    signal            value      bound\n")
	for i := range r.Incidents {
		inc := &r.Incidents[i]
		fmt.Fprintf(&b, "  %3d   %7.0fms  %-9s   %-14s   %-23s   %-15s   %8.3f   %8.3f\n",
			inc.Seq, inc.AtMS, inc.Class, inc.Detector, inc.Tenant, inc.Signal, inc.Value, inc.Bound)
		if len(inc.ActiveFaults) > 0 {
			fmt.Fprintf(&b, "        faults: %s\n", strings.Join(inc.ActiveFaults, ", "))
		}
	}
	return b.String()
}

// SignalSeries extracts one tenant's signal across the retained windows
// (for rendering): a built-in signal name, or "probe:<name>" for one of
// the tenant's probes. Windows without a sample are skipped. A tenant or
// signal the report lacks is an error.
func (r *MonReport) SignalSeries(tenant int, signal string) ([]SeriesPoint, error) {
	if tenant < 0 || tenant >= len(r.Tenants) {
		return nil, fmt.Errorf("no tenant %d (the report has %d)", tenant, len(r.Tenants))
	}
	var value func(s *TenantSample) (float64, bool)
	if pn, ok := strings.CutPrefix(signal, "probe:"); ok {
		pi := slices.Index(r.Tenants[tenant].Probes, pn)
		if pi < 0 {
			return nil, fmt.Errorf("tenant %d has no probe %q (probes: %s)",
				tenant, pn, strings.Join(r.Tenants[tenant].Probes, ", "))
		}
		value = func(s *TenantSample) (float64, bool) {
			if pi < len(s.Probes) {
				return s.Probes[pi], true
			}
			return 0, false
		}
	} else {
		var names []string
		for i := range builtinSignals {
			if builtinSignals[i].Name == signal {
				value = builtinSignals[i].value
			}
			names = append(names, builtinSignals[i].Name)
		}
		if value == nil {
			return nil, fmt.Errorf("unknown signal %q (want %s, or probe:<name>)", signal, strings.Join(names, ", "))
		}
	}
	var out []SeriesPoint
	for wi := range r.Windows {
		w := &r.Windows[wi]
		if v, ok := value(&w.Tenants[tenant]); ok {
			out = append(out, SeriesPoint{Window: w.Index, Value: v})
		}
	}
	return out, nil
}
