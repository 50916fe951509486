package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// Edge cases of the registry view and the tracer's ring mode — the
// behaviors the streaming monitor leans on (bounded flight-recorder ring,
// one metric per name however many objects feed it).

// TestSameNameSharesState: sources registered under one name read as one
// metric — counters sum, histograms pool their samples — and the view
// reads each source's current value at snapshot time.
func TestSameNameSharesState(t *testing.T) {
	r := NewRegistry()
	a, b := 3, 4
	r.Count("shared", &a)
	r.CounterFunc("shared", func() int64 { return int64(b) })
	var d1, d2 metrics.Distribution
	d1.Add(1)
	d2.Add(3)
	r.HistogramFunc("h", func() *metrics.Distribution { return &d1 })
	r.HistogramFunc("h", func() *metrics.Distribution { return &d2 })
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name returned distinct gauge instances")
	}
	r.Gauge("g").Set(1.5)
	a++
	got := map[string]SnapshotEntry{}
	for _, e := range r.Snapshot() {
		got[e.Kind+" "+e.Name] = e
	}
	if c := got["counter shared"]; c.Count != 8 {
		t.Fatalf("shared counter reads %d, want 4+4", c.Count)
	}
	if h := got["histogram h"]; h.Count != 2 || h.Mean != 2 || h.Max != 3 {
		t.Fatalf("pooled histogram = %+v, want n=2 mean=2 max=3", h)
	}
	if g := got["gauge g"]; g.Value != 1.5 {
		t.Fatalf("gauge reads %g, want 1.5", g.Value)
	}
	// Different kinds under the same name are distinct namespaces.
	if _, ok := got["counter g"]; ok {
		t.Fatal("counter namespace leaked the gauge")
	}
	// Snapshotting never re-sorts a source: insertion order survives.
	d1.Add(0)
	r.Snapshot()
	if s := d1.Samples(); s[0] != 1 || s[1] != 0 {
		t.Fatalf("snapshot reordered a source's samples: %v", s)
	}
}

// setClock installs a fake advancing clock and returns its advance func.
func setClock(tr *Tracer) func(time.Duration) {
	now := time.Duration(0)
	tr.SetNow(func() time.Duration { return now })
	return func(d time.Duration) { now += d }
}

func TestRingModeKeepsMostRecentInOrder(t *testing.T) {
	tr := NewTracer()
	adv := setClock(tr)
	tk := tr.Track("t")
	tr.SetLimit(4)
	for i := 0; i < 10; i++ {
		adv(time.Millisecond)
		tr.Instant(tk, "ev")
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := time.Duration(7+i) * time.Millisecond; ev.At != want {
			t.Fatalf("ring[%d].At = %v, want %v (oldest-first after wrap)", i, ev.At, want)
		}
	}
	// Events must not alias the ring: recording after the snapshot must
	// not rewrite history in the caller's hands.
	before := evs[0].At
	adv(time.Millisecond)
	tr.Instant(tk, "ev")
	if evs[0].At != before {
		t.Fatal("Events() of a wrapped ring aliases the live buffer")
	}
}

func TestSetLimitShrinkAndUnbound(t *testing.T) {
	tr := NewTracer()
	adv := setClock(tr)
	tk := tr.Track("t")
	for i := 0; i < 6; i++ {
		adv(time.Millisecond)
		tr.Instant(tk, "ev")
	}
	// Shrinking below the held count keeps only the newest.
	tr.SetLimit(3)
	evs := tr.Events()
	if len(evs) != 3 || evs[0].At != 4*time.Millisecond {
		t.Fatalf("shrink kept %d events from %v", len(evs), evs[0].At)
	}
	// Unbinding keeps the ring contents and grows past the old limit.
	tr.SetLimit(0)
	for i := 0; i < 5; i++ {
		adv(time.Millisecond)
		tr.Instant(tk, "ev")
	}
	evs = tr.Events()
	if len(evs) != 8 {
		t.Fatalf("unbound tracer holds %d events, want 3 retained + 5 new", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event order regressed at %d: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
}

func TestPerfettoEventsOutOfRangeTrack(t *testing.T) {
	events := []Event{
		{At: time.Millisecond, Dur: time.Millisecond, Track: 7, Phase: PhaseSpan, Name: "orphan"},
		{At: 2 * time.Millisecond, Track: 9, Phase: PhaseCounter, Name: "v", Value: 3},
	}
	var buf bytes.Buffer
	if err := WritePerfettoEvents(&buf, []string{"only"}, events); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	out := buf.String()
	// Track 7 renders under tid 8 with no thread_name metadata for it.
	if !strings.Contains(out, `"tid":8`) {
		t.Fatalf("out-of-range track did not render under its numeric tid:\n%s", out)
	}
	if strings.Count(out, "thread_name") != 1 {
		t.Fatalf("expected exactly one thread_name (the named track):\n%s", out)
	}
	// The counter's track prefix falls back to empty, not a panic.
	if !strings.Contains(out, `"name":"/v"`) {
		t.Fatalf("out-of-range counter track prefix missing:\n%s", out)
	}
}
