package tsmon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// W is the rollup window width.
const W = WindowWidth

// feed drives one synthetic steady window into a tenant: n frames with a
// fixed m2p latency and one demand fetch per frame.
func feed(tn *Tenant, win int, n int, m2p, fetch time.Duration) {
	for i := 0; i < n; i++ {
		at := time.Duration(win)*W + time.Duration(i)*W/time.Duration(n+1)
		tn.FramePresented(at)
		if m2p > 0 {
			tn.MotionToPhoton(at, m2p)
		}
		if fetch > 0 {
			tn.DemandFetch(at, fetch)
		}
	}
}

func TestSealWatermarkAndRollup(t *testing.T) {
	m := New(Config{Tenants: []TenantConfig{{Name: "g", M2PSLO: 50 * time.Millisecond}}})
	tn := m.Tenant(0)
	feed(tn, 0, 12, 20*time.Millisecond, 2*time.Millisecond) // 60 FPS
	feed(tn, 1, 6, 80*time.Millisecond, 0)                   // every m2p sample violates

	// Seal below the first boundary: nothing seals.
	m.Seal(W - time.Millisecond)
	if m.sealed != 0 {
		t.Fatalf("sealed %d windows before the boundary", m.sealed)
	}
	m.Seal(2 * W)
	ws := m.Windows()
	if len(ws) != 2 {
		t.Fatalf("sealed %d windows, want 2", len(ws))
	}
	w0, w1 := ws[0].Tenants[0], ws[1].Tenants[0]
	if w0.Frames != 12 || w0.FPS != 60 {
		t.Fatalf("window 0: frames=%d fps=%g, want 12/60", w0.Frames, w0.FPS)
	}
	if w0.M2PViolFrac != 0 || w1.M2PViolFrac != 1 {
		t.Fatalf("viol fracs %g/%g, want 0/1", w0.M2PViolFrac, w1.M2PViolFrac)
	}
	// The log histogram reports bucket representatives (~±16%), not exact
	// sample values.
	if w0.FetchCount != 12 || w0.FetchMeanMS < 1.5 || w0.FetchMeanMS > 2.5 {
		t.Fatalf("window 0 fetch: n=%d mean=%g, want 12 samples near 2ms", w0.FetchCount, w0.FetchMeanMS)
	}
	if w1.FetchCount != 0 || w1.FetchMeanMS != 0 {
		t.Fatalf("window 1 fetch must be empty: %+v", w1)
	}
}

func TestFinalizeSealsTrailingPartial(t *testing.T) {
	m := New(Config{Tenants: []TenantConfig{{Name: "g"}}})
	feed(m.Tenant(0), 0, 10, 0, 0)
	m.Tenant(0).FramePresented(W + 50*time.Millisecond)
	m.Finalize(W + 100*time.Millisecond)
	ws := m.Windows()
	if len(ws) != 2 || !ws[1].Partial || ws[0].Partial {
		t.Fatalf("want one full + one partial window, got %+v", ws)
	}
	// The partial window spans 100 ms with 1 frame: 10 FPS.
	if got := ws[1].Tenants[0].FPS; got != 10 {
		t.Fatalf("partial-window FPS %g, want 10 over the 100ms span", got)
	}
	// Detectors must not have run on the partial window (threshold floor
	// would fire on 10 FPS with a floor configured — here none is, but the
	// window must still be marked).
	if ws[1].EndMS != 300 {
		t.Fatalf("partial end %.0f, want 300", ws[1].EndMS)
	}
}

func TestRingEviction(t *testing.T) {
	m := New(Config{Tenants: []TenantConfig{{Name: "g"}}})
	m.Seal((ringWindows + 4) * W)
	if m.sealed != ringWindows+4 {
		t.Fatalf("sealed %d, want %d", m.sealed, ringWindows+4)
	}
	ws := m.Windows()
	if len(ws) != ringWindows || ws[0].Index != 4 || ws[ringWindows-1].Index != ringWindows+3 {
		t.Fatalf("ring retained windows %d..%d (%d), want 4..%d", ws[0].Index, ws[len(ws)-1].Index, len(ws), ringWindows+3)
	}
	if m.windowAt(3) != nil || m.windowAt(5) == nil {
		t.Fatal("windowAt disagrees with the ring contents")
	}
}

func TestProbeGaugeAndDelta(t *testing.T) {
	m := New(Config{Tenants: []TenantConfig{{Name: "g"}}})
	tn := m.Tenant(0)
	cum := 0.0
	tn.Probe("cum", ProbeDelta, func() float64 { return cum })
	tn.Probe("level", ProbeGauge, func() float64 { return cum * 10 })
	cum = 5
	m.Seal(W)
	cum = 12
	m.Seal(2 * W)
	ws := m.Windows()
	if p := ws[0].Tenants[0].Probes; p[0] != 5 || p[1] != 50 {
		t.Fatalf("window 0 probes %v, want [5 50]", p)
	}
	if p := ws[1].Tenants[0].Probes; p[0] != 7 || p[1] != 120 {
		t.Fatalf("window 1 probes %v, want [7 120]", p)
	}
}

// sealWindows seals n empty-by-default windows after `prep` mutates the
// tenant.
func sealWindows(m *Monitor, from, n int, prep func(win int)) {
	for w := from; w < from+n; w++ {
		if prep != nil {
			prep(w)
		}
		m.Seal(time.Duration(w+1) * W)
	}
}

func TestThresholdDetectorFiresAndHoldsOff(t *testing.T) {
	m := New(Config{
		Tenants:   []TenantConfig{{Name: "g", FPSFloor: 30}},
		Detectors: []Spec{{Name: "floor", Class: ClassThreshold, Signal: "fps", TenantLimit: true, Below: true, Consec: 2, Holdoff: 4}},
	})
	tn := m.Tenant(0)
	// 3 healthy windows at 60 FPS, then a sustained collapse to 10 FPS.
	sealWindows(m, 0, 3, func(w int) { feed(tn, w, 12, 0, 0) })
	sealWindows(m, 3, 8, func(w int) { feed(tn, w, 2, 0, 0) })
	incs := m.Incidents()
	if len(incs) != 2 {
		t.Fatalf("%d incidents, want 2 (fire at consec=2, refire after holdoff)", len(incs))
	}
	// Breaches start at window 3 → fires at window 4 (consec=2); the
	// holdoff elapses during the sustained breach, so the refire lands on
	// window 8, the first post-holdoff window.
	if incs[0].Window != 4 || incs[1].Window != 8 {
		t.Fatalf("fire windows %d,%d, want 4,8", incs[0].Window, incs[1].Window)
	}
	if incs[0].Value != 10 || incs[0].Bound != 30 {
		t.Fatalf("incident value/bound %g/%g, want 10/30", incs[0].Value, incs[0].Bound)
	}
}

func TestBurnDetectorNeedsBothWindows(t *testing.T) {
	m := New(Config{
		Tenants:   []TenantConfig{{Name: "g", M2PSLO: 50 * time.Millisecond}},
		Detectors: []Spec{{Name: "burn", Class: ClassBurn, Signal: "m2p_viol_frac"}},
	})
	tn := m.Tenant(0)
	// One violating window inside healthy ones: fast mean spikes but the
	// slow mean stays low — no fire.
	sealWindows(m, 0, 3, func(w int) { feed(tn, w, 4, 10*time.Millisecond, 0) })
	sealWindows(m, 3, 1, func(w int) { feed(tn, w, 4, 90*time.Millisecond, 0) })
	sealWindows(m, 4, 1, func(w int) { feed(tn, w, 4, 10*time.Millisecond, 0) })
	if n := len(m.Incidents()); n != 0 {
		t.Fatalf("single-window blip fired the burn detector (%d incidents)", n)
	}
	// Sustained violation: both means cross.
	sealWindows(m, 5, 3, func(w int) { feed(tn, w, 4, 90*time.Millisecond, 0) })
	incs := m.Incidents()
	if len(incs) != 1 || incs[0].Class != "burn" {
		t.Fatalf("sustained burn: %+v, want exactly one burn incident", incs)
	}
}

func TestDriftDetectorFiresOnRegimeChangeAndRelearns(t *testing.T) {
	m := New(Config{
		Tenants: []TenantConfig{{Name: "g"}},
		Detectors: []Spec{{Name: "drift", Class: ClassDrift, Signal: "probe:load",
			Consec: 2, MinDelta: 1, Holdoff: 4}},
	})
	tn := m.Tenant(0)
	level := 100.0
	tn.Probe("load", ProbeGauge, func() float64 { return level })
	sealWindows(m, 0, driftWarmup+2, nil) // warm up and track the 100 regime
	level = 300
	sealWindows(m, driftWarmup+2, driftWarmup+4, nil) // shift regime; then hold it
	incs := m.Incidents()
	if len(incs) != 1 {
		t.Fatalf("%d incidents, want exactly 1 (restart re-learns the new regime)", len(incs))
	}
	if incs[0].Window != driftWarmup+3 || incs[0].Value != 300 || incs[0].Bound != 100 {
		t.Fatalf("drift incident %+v, want fire at window %d with 300 vs mean 100", incs[0], driftWarmup+3)
	}
	// Shift again after the re-learn: fires once more.
	level = 50
	sealWindows(m, 2*driftWarmup+6, 4, nil)
	if n := len(m.Incidents()); n != 2 {
		t.Fatalf("second regime change: %d incidents, want 2", n)
	}
}

func TestMissingSignalWindowsAreSkipped(t *testing.T) {
	m := New(Config{
		Tenants:   []TenantConfig{{Name: "g"}},
		Detectors: []Spec{{Name: "f", Class: ClassThreshold, Signal: "fetch_mean_ms", Consec: 2}},
	})
	tn := m.Tenant(0)
	// Breach, gap (no fetches → no signal), breach: the gap must not reset
	// consec to zero mid-episode nor count as a breach.
	tn.DemandFetch(W/2, 10*time.Millisecond)
	m.Seal(W)
	m.Seal(2 * W)
	tn.DemandFetch(2*W+W/2, 10*time.Millisecond)
	m.Seal(3 * W)
	if n := len(m.Incidents()); n != 1 {
		t.Fatalf("%d incidents, want 1 (consec survives signal gaps)", n)
	}
}

func TestIncidentContextAndFaultWindows(t *testing.T) {
	m := New(Config{
		Tenants:   []TenantConfig{{Name: "g", FPSFloor: 30}},
		Detectors: []Spec{{Name: "floor", Class: ClassThreshold, Signal: "fps", TenantLimit: true, Below: true, Consec: 1}},
	})
	tn := m.Tenant(0)
	m.AddFaultWindow(0, "link-collapse", 2*W, 3*W)
	m.AddFaultWindow(1, "other-tenant", 0, 10*W) // must not apply
	sealWindows(m, 0, 2, func(w int) { feed(tn, w, 12, 0, 0) })
	sealWindows(m, 2, 1, func(w int) { feed(tn, w, 1, 0, 0) })
	incs := m.Incidents()
	if len(incs) != 1 {
		t.Fatalf("%d incidents, want 1", len(incs))
	}
	inc := incs[0]
	if len(inc.Series) != 3 || inc.Series[2].Value != 5 || inc.Series[0].Value != 60 {
		t.Fatalf("context series %+v, want the 3 sealed windows trigger-last", inc.Series)
	}
	if len(inc.ActiveFaults) != 1 || !strings.Contains(inc.ActiveFaults[0], "link-collapse") {
		t.Fatalf("active faults %v, want the overlapping link-collapse only", inc.ActiveFaults)
	}
	if inc.Digest == "" || inc.TraceEvents != 0 {
		t.Fatalf("incident digest/trace: %+v", inc)
	}
}

func TestReportRoundTripAndDigest(t *testing.T) {
	build := func() *MonReport {
		m := New(Config{
			Tenants:   []TenantConfig{{Name: "g", FPSFloor: 30, M2PSLO: 50 * time.Millisecond}},
			Detectors: []Spec{{Name: "floor", Class: ClassThreshold, Signal: "fps", TenantLimit: true, Below: true, Consec: 1}},
		})
		tn := m.Tenant(0)
		level := 7.0
		tn.Probe("x", ProbeGauge, func() float64 { return level })
		sealWindows(m, 0, 2, func(w int) { feed(tn, w, 12, 20*time.Millisecond, time.Millisecond) })
		sealWindows(m, 2, 1, func(w int) { feed(tn, w, 1, 20*time.Millisecond, 0) })
		m.Finalize(3*W + W/2)
		return m.Report()
	}
	r1, r2 := build(), build()
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("equal runs produced different reports:\n%s\n%s", j1, j2)
	}
	if r1.Digest != r1.computeDigest() {
		t.Fatal("digest does not recompute from the report")
	}

	path := filepath.Join(t.TempDir(), "mon.json")
	if err := r1.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	rr, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Digest != r1.Digest || rr.Sealed != r1.Sealed || len(rr.Incidents) != len(r1.Incidents) {
		t.Fatalf("round trip mismatch: %+v vs %+v", rr, r1)
	}
	if got := rr.computeDigest(); got != rr.Digest {
		t.Fatalf("re-read digest %s != recomputed %s", rr.Digest, got)
	}
	if bytes.Contains(j1, []byte("NaN")) || bytes.Contains(j1, []byte("Inf")) {
		t.Fatalf("report JSON contains non-finite values:\n%s", j1)
	}
}

func TestSignalSeriesAndFormatText(t *testing.T) {
	m := New(Config{Tenants: []TenantConfig{{Name: "g"}}})
	tn := m.Tenant(0)
	tn.Probe("x", ProbeGauge, func() float64 { return 3 })
	sealWindows(m, 0, 3, func(w int) { feed(tn, w, 2+w, 0, 0) })
	r := m.Report()
	fps, err := r.SignalSeries(0, "fps")
	if err != nil || len(fps) != 3 || fps[2].Value != 20 {
		t.Fatalf("fps series %+v, %v", fps, err)
	}
	px, err := r.SignalSeries(0, "probe:x")
	if err != nil || len(px) != 3 || px[0].Value != 3 {
		t.Fatalf("probe series %+v, %v", px, err)
	}
	// A known signal with no sample in any window is empty, not an error.
	if m2p, err := r.SignalSeries(0, "m2p_p99_ms"); err != nil || len(m2p) != 0 {
		t.Fatalf("m2p series %+v, %v: want empty", m2p, err)
	}
	for _, bad := range []struct {
		tenant int
		signal string
	}{{0, "probe:missing"}, {0, "fsp"}, {5, "fps"}, {-1, "fps"}} {
		if pts, err := r.SignalSeries(bad.tenant, bad.signal); err == nil {
			t.Errorf("SignalSeries(%d, %q) = %+v, want an error", bad.tenant, bad.signal, pts)
		}
	}
	txt := r.FormatText()
	if !strings.Contains(txt, "digest "+r.Digest) || !strings.Contains(txt, "no incidents") {
		t.Fatalf("FormatText missing header fields:\n%s", txt)
	}
}

func TestSignalsRegistryResolves(t *testing.T) {
	names := map[string]bool{}
	for _, s := range builtinSignals {
		if s.Name == "" || names[s.Name] {
			t.Fatalf("bad or duplicate signal entry %+v", s)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"fps", "m2p_viol_frac", "fetch_mean_ms", "fetch_p99_ms"} {
		if !names[want] {
			t.Fatalf("built-in signal %q missing from registry", want)
		}
	}
	if len(DefaultSpecs()) < 3 {
		t.Fatal("default detector registry lost entries")
	}
}

// TestFormatTextCountsEvictedWindows: the run totals cover every window,
// not just the retained ring — a guest presenting one frame per window for
// longer than the ring holds reports all of them.
func TestFormatTextCountsEvictedWindows(t *testing.T) {
	m := New(Config{Tenants: []TenantConfig{{Name: "g"}}})
	tn := m.Tenant(0)
	const n = ringWindows + 44
	sealWindows(m, 0, n, func(w int) {
		feed(tn, w, 1, 0, 0)
		tn.FrameDropped(time.Duration(w)*W + W/2)
	})
	m.Finalize(n * W)
	r := m.Report()
	if len(r.Windows) != ringWindows || r.Sealed != n {
		t.Fatalf("retained %d of %d sealed windows, want %d of %d", len(r.Windows), r.Sealed, ringWindows, n)
	}
	if tm := r.Tenants[0]; tm.Frames != n || tm.Drops != n {
		t.Fatalf("run totals frames=%d drops=%d, want %d each", tm.Frames, tm.Drops, n)
	}
	if want := fmt.Sprintf("frames=%d drops=%d", n, n); !strings.Contains(r.FormatText(), want) {
		t.Fatalf("FormatText missing %q:\n%s", want, r.FormatText())
	}
}

// TestFinalizeCountsSampleOnTheBound: a frame exactly at Finalize's bound,
// when the bound is a window edge, lands in no sealed window but still
// counts in the run totals.
func TestFinalizeCountsSampleOnTheBound(t *testing.T) {
	m := New(Config{Tenants: []TenantConfig{{Name: "g"}}})
	tn := m.Tenant(0)
	tn.FramePresented(100 * time.Millisecond)
	tn.FramePresented(time.Second)
	m.Finalize(time.Second)
	r := m.Report()
	if got := r.Tenants[0].Frames; got != 2 {
		t.Fatalf("run total frames=%d, want 2", got)
	}
	if !strings.Contains(r.FormatText(), "frames=2 ") {
		t.Fatalf("FormatText undercounts:\n%s", r.FormatText())
	}
}
