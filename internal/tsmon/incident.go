package tsmon

import (
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/obs"
)

// SeriesPoint is one window of an incident's context series.
type SeriesPoint struct {
	Window int     `json:"window"`
	Value  float64 `json:"value"`
}

// Incident is one detector firing with its surrounding diagnostic context:
// the machine-readable flight-recorder snapshot. Every field is a pure
// function of the simulation, so equal seeds produce byte-identical
// incidents; TraceEvents counts the optional Perfetto snippet captured
// from the span ring (written separately via WriteIncidentTrace).
type Incident struct {
	Seq      int    `json:"seq"`
	Detector string `json:"detector"`
	Class    string `json:"class"`
	Signal   string `json:"signal"`
	Tenant   string `json:"tenant"`
	// Window is the trigger window's index; AtMS its end (virtual ms).
	Window int     `json:"window"`
	AtMS   float64 `json:"at_ms"`
	// Value is the observed signal (for burn, the fast-window mean) and
	// Bound what it crossed (threshold limit, burn threshold, or the
	// drift detector's learned mean).
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	// Series is the triggering signal over the trailing contextWindows
	// (windows without a sample are omitted), trigger last.
	Series []SeriesPoint `json:"series"`
	// Dominant names the critical-path component charged the most virtual
	// time so far, when a profiler is attached.
	Dominant string `json:"dominant,omitempty"`
	// ActiveFaults lists announced fault windows overlapping the trigger
	// window.
	ActiveFaults []string `json:"active_faults,omitempty"`
	// TraceEvents is the size of the captured span-ring snippet (0 when
	// no tracer is attached).
	TraceEvents int `json:"trace_events"`
	// Digest fingerprints the incident (FNV-1a over the fields above).
	Digest string `json:"digest"`

	// Flight-recorder snapshot backing the Perfetto snippet; kept out of
	// the JSON report (written on demand as its own trace file).
	traceNames  []string
	traceEvents []obs.Event
}

// record assembles and stores an incident for detector spec s firing on
// tenant ti at sealed window w.
func (m *Monitor) record(s *Spec, ti int, w *Window, value, bound float64) {
	inc := Incident{
		Seq:      len(m.incidents),
		Detector: s.Name,
		Class:    string(s.Class),
		Signal:   s.Signal,
		Tenant:   m.tenants[ti].cfg.Name,
		Window:   w.Index,
		AtMS:     w.EndMS,
		Value:    round6(value),
		Bound:    round6(bound),
	}
	for idx := w.Index - contextWindows + 1; idx <= w.Index; idx++ {
		cw := m.windowAt(idx)
		if cw == nil {
			continue
		}
		if v, ok := m.signalValue(s.Signal, cw, ti); ok {
			inc.Series = append(inc.Series, SeriesPoint{Window: idx, Value: v})
		}
	}
	inc.Dominant = m.dominantComponent()
	inc.ActiveFaults = m.activeFaults(ti, durMS(w.StartMS), durMS(w.EndMS))
	if m.tracer != nil {
		evs := m.tracer.Events()
		inc.traceEvents = append([]obs.Event(nil), evs...)
		inc.traceNames = make([]string, m.tracer.Tracks())
		for i := range inc.traceNames {
			inc.traceNames[i] = m.tracer.TrackName(obs.Track(i))
		}
		inc.TraceEvents = len(inc.traceEvents)
	}
	inc.Digest = inc.digest()
	m.incidents = append(m.incidents, inc)
}

// dominantComponent names the profiler component with the largest charged
// virtual time so far, "" without a profiler or before any attribution.
func (m *Monitor) dominantComponent() string {
	if m.profiler == nil {
		return ""
	}
	rep := m.profiler.Report()
	best, bestDur := "", int64(-1)
	for name, d := range rep.Comps {
		// Ties break by name so the answer never depends on map order.
		if int64(d) > bestDur || (int64(d) == bestDur && name < best) {
			best, bestDur = name, int64(d)
		}
	}
	return best
}

// digest fingerprints the incident's deterministic fields with FNV-1a.
func (inc *Incident) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%s|%d|%.6f|%.6f|%.6f|%d",
		inc.Seq, inc.Detector, inc.Class, inc.Signal, inc.Tenant,
		inc.Window, inc.AtMS, inc.Value, inc.Bound, inc.TraceEvents)
	for _, p := range inc.Series {
		fmt.Fprintf(h, "|%d:%.6f", p.Window, p.Value)
	}
	for _, f := range inc.ActiveFaults {
		fmt.Fprintf(h, "|%s", f)
	}
	fmt.Fprintf(h, "|%s", inc.Dominant)
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteIncidentTrace writes incident seq's captured span-ring snapshot as
// Chrome/Perfetto trace-event JSON. It errors when the incident does not
// exist or carried no snapshot (no tracer attached).
func (m *Monitor) WriteIncidentTrace(w io.Writer, seq int) error {
	if seq < 0 || seq >= len(m.incidents) {
		return fmt.Errorf("tsmon: no incident %d (have %d)", seq, len(m.incidents))
	}
	inc := &m.incidents[seq]
	if inc.TraceEvents == 0 {
		return fmt.Errorf("tsmon: incident %d captured no trace (no tracer attached)", seq)
	}
	return obs.WritePerfettoEvents(w, inc.traceNames, inc.traceEvents)
}

// durMS converts milliseconds back to a virtual duration for fault-window
// overlap checks.
func durMS(v float64) time.Duration { return time.Duration(v * 1e6) }
