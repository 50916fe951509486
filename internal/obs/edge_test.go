package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// Edge cases of the registry clamp contract and the tracer's ring mode —
// the behaviors the streaming monitor leans on (bounded flight-recorder
// ring, counters that never go negative under correction deltas).

func TestCounterClampFloor(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(10)
	c.Add(-3)
	if c.n != 7 {
		t.Fatalf("10-3 = %d, want 7", c.n)
	}
	// A correction larger than the count saturates at zero, not negative.
	c.Add(-100)
	if c.n != 0 {
		t.Fatalf("over-correction left %d, want clamp at 0", c.n)
	}
	c.Add(-1)
	if c.n != 0 {
		t.Fatalf("negative add on empty counter left %d", c.n)
	}
}

func TestCounterClampCeiling(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(math.MaxInt64 - 1)
	// A positive delta that would wrap saturates at MaxInt64.
	c.Add(math.MaxInt64)
	if c.n != math.MaxInt64 {
		t.Fatalf("wrapping add left %d, want MaxInt64", c.n)
	}
	c.Inc()
	if c.n != math.MaxInt64 {
		t.Fatalf("Inc at ceiling left %d, want MaxInt64", c.n)
	}
	// The saturated counter still accepts corrections downward.
	c.Add(-5)
	if c.n != math.MaxInt64-5 {
		t.Fatalf("correction from ceiling left %d", c.n)
	}
}

func TestSameNameSharesState(t *testing.T) {
	r := NewRegistry()
	r.Counter("shared").Add(3)
	if got := r.Counter("shared").n; got != 3 {
		t.Fatalf("re-looked-up counter reads %d, want 3", got)
	}
	if r.Counter("shared") != r.Counter("shared") {
		t.Fatal("same name returned distinct counter instances")
	}
	r.Gauge("g").Set(1.5)
	if got := r.Gauge("g").v; got != 1.5 {
		t.Fatalf("re-looked-up gauge reads %g, want 1.5", got)
	}
	r.Histogram("h").Observe(2)
	if got := r.Histogram("h").d.Count(); got != 1 {
		t.Fatalf("re-looked-up histogram count %d, want 1", got)
	}
	// Different kinds under the same name are distinct namespaces.
	if got := r.Counter("g").n; got != 0 {
		t.Fatalf("counter namespace leaked the gauge value: %d", got)
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
