package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// SnapshotEntry is one metric in a deterministically ordered snapshot.
type SnapshotEntry struct {
	Name string
	Kind string // "counter", "gauge", or "histogram"

	// Counter: Count is the value. Gauge: Value is the last set value,
	// Smoothed the EWMA, Count the set count. Histogram: Count is the
	// sample count and the summary fields are filled.
	Count    int64
	Value    float64
	Smoothed float64
	Mean     float64
	P50      float64
	P99      float64
	Max      float64
}

// Snapshot returns every metric sorted by (kind, name) — a stable order
// regardless of registration order or map iteration.
func (r *Registry) Snapshot() []SnapshotEntry {
	if r == nil {
		return nil
	}
	out := make([]SnapshotEntry, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, reads := range r.counters {
		var n int64
		for _, read := range reads {
			n += read()
		}
		out = append(out, SnapshotEntry{Name: name, Kind: "counter", Count: n})
	}
	for name, g := range r.gauges {
		out = append(out, SnapshotEntry{
			Name: name, Kind: "gauge", Count: g.n,
			Value: finite(g.v), Smoothed: finite(g.ewma.Value()),
		})
	}
	for name, reads := range r.hists {
		// Percentiles come from a pooled copy, so the sources are never
		// re-sorted; the mean divides the sources' own running sums.
		var all metrics.Distribution
		var sum float64
		for _, read := range reads {
			d := read()
			all.Merge(d)
			sum += d.Sum()
		}
		e := SnapshotEntry{Name: name, Kind: "histogram", Count: int64(all.Count())}
		if e.Count > 0 {
			e.Mean = finite(sum / float64(e.Count))
			e.P50, e.P99 = finite(all.Percentile(50)), finite(all.Percentile(99))
			e.Max = finite(all.Max())
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteText renders the snapshot as a plain-text metrics dump.
func (r *Registry) WriteText(w io.Writer) error {
	for _, e := range r.Snapshot() {
		var err error
		switch e.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "counter   %-40s %d\n", e.Name, e.Count)
		case "gauge":
			_, err = fmt.Fprintf(w, "gauge     %-40s %.3f (ewma %.3f, n=%d)\n",
				e.Name, e.Value, e.Smoothed, e.Count)
		case "histogram":
			if e.Count == 0 {
				// Explicit empty rendering: a registered-but-unobserved
				// histogram reports count=0 with zeroed summary fields
				// instead of whatever the distribution's reducers return
				// on no samples.
				_, err = fmt.Fprintf(w, "histogram %-40s n=0 mean=0.000 p50=0.000 p99=0.000 max=0.000\n",
					e.Name)
				break
			}
			_, err = fmt.Fprintf(w, "histogram %-40s n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f\n",
				e.Name, e.Count, e.Mean, e.P50, e.P99, e.Max)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// FormatText returns the plain-text metrics dump as a string.
func (r *Registry) FormatText() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// WritePerfetto writes the tracer's event stream as Chrome/Perfetto
// trace-event JSON (the "JSON Array Format" with an object wrapper),
// loadable in ui.perfetto.dev and chrome://tracing.
//
// Layout: one process (pid 1) whose threads are the tracer's tracks
// (tid = track index + 1), named via thread_name metadata events.
// Timestamps are virtual-time microseconds with nanosecond precision.
// Counters are namespaced "track/name" so same-named counters on
// different tracks chart separately; async IDs are namespaced by track.
// The byte stream is a pure function of the event stream, so equal-seed
// runs export byte-identical files.
func WritePerfetto(w io.Writer, t *Tracer) error {
	if t == nil {
		t = NewTracer()
	}
	return WritePerfettoEvents(w, t.names, t.Events())
}

// WritePerfettoEvents writes an explicit (track names, events) pair as
// Chrome/Perfetto trace-event JSON — the exporter behind WritePerfetto,
// exported so snapshots of a tracer's event ring (the tsmon incident
// flight recorder) can be serialized without a live Tracer. Events must
// reference tracks by index into names; out-of-range tracks render under
// their numeric tid with no thread_name metadata.
func WritePerfettoEvents(w io.Writer, names []string, events []Event) error {
	bw := &errWriter{w: w}
	bw.str(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	bw.str(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"vsoc-sim"}}`)
	for i, name := range names {
		bw.str(",\n")
		bw.str(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
		bw.int(i + 1)
		bw.str(`,"args":{"name":`)
		bw.quoted(name)
		bw.str(`}}`)
	}
	for i := range events {
		ev := &events[i]
		tid := int(ev.Track) + 1
		bw.str(",\n")
		switch ev.Phase {
		case PhaseSpan:
			bw.str(`{"name":`)
			bw.quoted(ev.Name)
			bw.str(`,"cat":"vsoc","ph":"X","ts":`)
			bw.micros(ev.At.Nanoseconds())
			bw.str(`,"dur":`)
			bw.micros(ev.Dur.Nanoseconds())
			bw.str(`,"pid":1,"tid":`)
			bw.int(tid)
			bw.str(`}`)
		case PhaseAsyncBegin, PhaseAsyncEnd:
			bw.str(`{"name":`)
			bw.quoted(ev.Name)
			bw.str(`,"cat":"vsoc","ph":"`)
			bw.str(string(ev.Phase))
			bw.str(`","id":"0x`)
			// Track-namespaced so equal IDs on different tracks never pair.
			bw.str(strconv.FormatUint(uint64(tid)<<40|ev.ID, 16))
			bw.str(`","ts":`)
			bw.micros(ev.At.Nanoseconds())
			bw.str(`,"pid":1,"tid":`)
			bw.int(tid)
			bw.str(`}`)
		case PhaseInstant:
			bw.str(`{"name":`)
			bw.quoted(ev.Name)
			bw.str(`,"cat":"vsoc","ph":"i","s":"t","ts":`)
			bw.micros(ev.At.Nanoseconds())
			bw.str(`,"pid":1,"tid":`)
			bw.int(tid)
			bw.str(`}`)
		case PhaseCounter:
			track := ""
			if int(ev.Track) < len(names) {
				track = names[ev.Track]
			}
			bw.str(`{"name":`)
			bw.quoted(track + "/" + ev.Name)
			bw.str(`,"ph":"C","ts":`)
			bw.micros(ev.At.Nanoseconds())
			bw.str(`,"pid":1,"tid":`)
			bw.int(tid)
			bw.str(`,"args":{"value":`)
			bw.float(ev.Value)
			bw.str(`}}`)
		}
	}
	bw.str("\n]}\n")
	return bw.err
}

// errWriter accumulates the first write error so the exporter body stays
// free of per-write error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) str(s string) {
	if b.err == nil {
		_, b.err = io.WriteString(b.w, s)
	}
}

func (b *errWriter) int(v int) { b.str(strconv.Itoa(v)) }

// micros renders nanoseconds as microseconds with fixed 3-decimal
// precision — deterministic formatting independent of value magnitude.
func (b *errWriter) micros(ns int64) {
	b.str(strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64))
}

func (b *errWriter) float(v float64) {
	// NaN/Inf are not valid JSON literals and would corrupt the export.
	b.str(strconv.FormatFloat(finite(v), 'g', -1, 64))
}

// finite squashes NaN and ±Inf to zero so text dumps stay parseable and
// JSON exports stay valid even if a metric was fed a non-finite sample.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (b *errWriter) quoted(s string) { b.str(strconv.Quote(s)) }
