package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestNilSafety calls every method on nil receivers: the disabled path must
// be a no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.SetNow(func() time.Duration { return 0 })
	tr.SetWindow(0, time.Second)
	tk := tr.Track("x")
	sp := tr.Begin(tk, "a")
	tr.End(tk, sp)
	tr.SpanAt(tk, "b", 0, time.Millisecond)
	asp := tr.BeginAsync(tk, "c")
	tr.EndAsync(tk, asp)
	tr.AsyncBegin(tk, "d", 1)
	tr.AsyncEnd(tk, "d", 1)
	tr.Instant(tk, "e")
	tr.Count(tk, "f", 1)
	if tr.Events() != nil || tr.Tracks() != 0 || tr.TrackName(tk) != "" {
		t.Fatal("nil tracer returned non-zero state")
	}

	var reg *Registry
	c := reg.Counter("c")
	c.Inc()
	c.Add(2)
	g := reg.Gauge("g")
	g.Set(3)
	h := reg.Histogram("h")
	h.Observe(4)
	h.ObserveDuration(time.Millisecond)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	if reg.Snapshot() != nil || reg.FormatText() != "" {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestDisabledPathZeroAlloc pins the disabled-path contract: with a nil
// tracer and nil metric handles, the instrumentation pattern used at hot
// call sites allocates nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	ctr := reg.Counter("x")
	ga := reg.Gauge("y")
	allocs := testing.AllocsPerRun(1000, func() {
		if tr != nil {
			sp := tr.Begin(0, "work")
			tr.End(0, sp)
			tr.Instant(0, "tick")
			tr.Count(0, "depth", 1)
		}
		ctr.Inc()
		ga.Set(2)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f per op, want 0", allocs)
	}
}

// TestTracerRecording checks span/instant/counter recording against a fake
// virtual clock, and track interning order.
func TestTracerRecording(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer()
	tr.SetNow(func() time.Duration { return now })

	a := tr.Track("alpha")
	b := tr.Track("beta")
	if a2 := tr.Track("alpha"); a2 != a {
		t.Fatalf("re-interning alpha gave %d, want %d", a2, a)
	}
	if tr.Tracks() != 2 || tr.TrackName(a) != "alpha" || tr.TrackName(b) != "beta" {
		t.Fatalf("track interning wrong: %d tracks", tr.Tracks())
	}

	sp := tr.Begin(a, "work")
	now = 5 * time.Millisecond
	tr.End(a, sp)
	tr.Instant(b, "tick")
	tr.Count(b, "depth", 3)
	asp := tr.BeginAsync(a, "flight")
	now = 7 * time.Millisecond
	tr.EndAsync(a, asp)

	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	if evs[0].Phase != PhaseSpan || evs[0].At != 0 || evs[0].Dur != 5*time.Millisecond {
		t.Fatalf("span event wrong: %+v", evs[0])
	}
	if evs[1].Phase != PhaseInstant || evs[1].Track != b {
		t.Fatalf("instant event wrong: %+v", evs[1])
	}
	if evs[2].Phase != PhaseCounter || evs[2].Value != 3 {
		t.Fatalf("counter event wrong: %+v", evs[2])
	}
	if evs[3].Phase != PhaseAsyncBegin || evs[4].Phase != PhaseAsyncEnd || evs[3].ID != evs[4].ID {
		t.Fatalf("async events wrong: %+v %+v", evs[3], evs[4])
	}
}

// TestWindowFiltering: spans survive on any overlap with the window; point
// events survive by their own timestamp.
func TestWindowFiltering(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer()
	tr.SetNow(func() time.Duration { return now })
	tr.SetWindow(10*time.Millisecond, 20*time.Millisecond)
	tk := tr.Track("t")

	tr.Instant(tk, "before")                                           // at 0: dropped
	tr.SpanAt(tk, "straddle", 5*time.Millisecond, 10*time.Millisecond) // overlaps: kept
	tr.SpanAt(tk, "outside", 0, 2*time.Millisecond)                    // dropped
	now = 15 * time.Millisecond
	tr.Instant(tk, "inside") // kept
	now = 25 * time.Millisecond
	tr.Instant(tk, "after") // dropped

	var names []string
	for _, ev := range tr.Events() {
		names = append(names, ev.Name)
	}
	if got := strings.Join(names, ","); got != "straddle,inside" {
		t.Fatalf("window kept %q, want \"straddle,inside\"", got)
	}
}

// TestSnapshotDeterministic: two registries fed the same operations in
// different orders snapshot identically, sorted by (kind, name).
func TestSnapshotDeterministic(t *testing.T) {
	fill := func(names []string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			r.Counter("c." + n).Add(int64(len(n)))
			r.Gauge("g." + n).Set(float64(len(n)))
			r.Histogram("h." + n).Observe(float64(len(n)))
		}
		return r
	}
	a := fill([]string{"zeta", "alpha", "mid"})
	b := fill([]string{"mid", "zeta", "alpha"})
	at, bt := a.FormatText(), b.FormatText()
	if at != bt {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", at, bt)
	}
	snap := a.Snapshot()
	for i := 1; i < len(snap); i++ {
		p, q := snap[i-1], snap[i]
		if p.Kind > q.Kind || (p.Kind == q.Kind && p.Name >= q.Name) {
			t.Fatalf("snapshot unsorted at %d: %v then %v", i, p, q)
		}
	}
}

// TestPerfettoExport checks the JSON is valid, carries the required keys,
// and is byte-identical across repeated exports of one tracer.
func TestPerfettoExport(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer()
	tr.SetNow(func() time.Duration { return now })
	tk := tr.Track("dev:gpu")
	sp := tr.Begin(tk, "exec")
	now = 3 * time.Millisecond
	tr.End(tk, sp)
	tr.Instant(tk, "kick")
	tr.Count(tk, "pending", 2)
	asp := tr.BeginAsync(tr.Track("vq:gpu-vq"), "queued")
	now = 4 * time.Millisecond
	tr.EndAsync(tr.Track("vq:gpu-vq"), asp)

	var b1, b2 strings.Builder
	if err := WritePerfetto(&b1, tr); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&b2, tr); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("repeated exports differ")
	}
	raw := []byte(b1.String())
	if !json.Valid(raw) {
		t.Fatalf("export is not valid JSON:\n%s", raw)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("malformed document: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		if ev["ph"] != "M" {
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("non-metadata event missing ts: %v", ev)
			}
		}
	}
	// Metadata must name the process and both tracks.
	s := b1.String()
	for _, want := range []string{"vsoc-sim", "dev:gpu", "vq:gpu-vq", `"ph":"X"`, `"ph":"i"`, `"ph":"C"`, `"ph":"b"`, `"ph":"e"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("export missing %q:\n%s", want, s)
		}
	}

	// A nil tracer still exports a valid empty document.
	var empty strings.Builder
	if err := WritePerfetto(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(empty.String())) {
		t.Fatalf("nil-tracer export invalid:\n%s", empty.String())
	}
}

// A registered-but-never-observed histogram must render an explicit
// count=0 line with zeroed summary fields, and gauges/histograms fed
// non-finite samples must dump finite numbers and valid Perfetto JSON.
func TestEmptyAndNonFiniteExports(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("svm.empty")
	poisoned := reg.Histogram("svm.poisoned")
	poisoned.Observe(math.NaN())
	poisoned.Observe(math.Inf(1))
	g := reg.Gauge("svm.gauge")
	g.Set(math.NaN())

	text := reg.FormatText()
	want := "histogram svm.empty                                n=0 mean=0.000 p50=0.000 p99=0.000 max=0.000\n"
	if !strings.Contains(text, want) {
		t.Fatalf("empty histogram rendering missing from:\n%s", text)
	}
	if strings.Contains(text, "NaN") || strings.Contains(text, "Inf") {
		t.Fatalf("non-finite values leaked into text dump:\n%s", text)
	}
	for _, e := range reg.Snapshot() {
		for _, v := range []float64{e.Value, e.Smoothed, e.Mean, e.P50, e.P99, e.Max} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("snapshot entry %s carries non-finite field: %+v", e.Name, e)
			}
		}
	}

	tr := NewTracer()
	tk := tr.Track("svm")
	tr.Count(tk, "nan-counter", math.NaN())
	tr.Count(tk, "inf-counter", math.Inf(-1))
	var b strings.Builder
	if err := WritePerfetto(&b, tr); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v\n%s", err, b.String())
	}
}
