package tsmon

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// feed drives one synthetic steady second into a tenant: fps frames with a
// fixed m2p latency and one demand fetch per frame.
func feed(tn *Tenant, sec int, fps int, m2p, fetch time.Duration) {
	for i := 0; i < fps; i++ {
		at := time.Duration(sec)*time.Second + time.Duration(i)*time.Second/time.Duration(fps+1)
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
	m := New(Config{Window: time.Second, Tenants: []TenantConfig{{Name: "g", M2PSLO: 50 * time.Millisecond}}})
	tn := m.Tenant(0)
	feed(tn, 0, 60, 20*time.Millisecond, 2*time.Millisecond)
	feed(tn, 1, 30, 80*time.Millisecond, 0) // every m2p sample violates

	// Seal below the first boundary: nothing seals.
	m.Seal(900 * time.Millisecond)
	if m.sealed != 0 {
		t.Fatalf("sealed %d windows before the boundary", m.sealed)
	}
	m.Seal(2 * time.Second)
	ws := m.Windows()
	if len(ws) != 2 {
		t.Fatalf("sealed %d windows, want 2", len(ws))
	}
	w0, w1 := ws[0].Tenants[0], ws[1].Tenants[0]
	if w0.Frames != 60 || w0.FPS != 60 {
		t.Fatalf("window 0: frames=%d fps=%g, want 60/60", w0.Frames, w0.FPS)
	}
	if w0.M2PViolFrac != 0 || w1.M2PViolFrac != 1 {
		t.Fatalf("viol fracs %g/%g, want 0/1", w0.M2PViolFrac, w1.M2PViolFrac)
	}
	// The log histogram reports bucket representatives (~±16%), not exact
	// sample values.
	if w0.FetchCount != 60 || w0.FetchMeanMS < 1.5 || w0.FetchMeanMS > 2.5 {
		t.Fatalf("window 0 fetch: n=%d mean=%g, want 60 samples near 2ms", w0.FetchCount, w0.FetchMeanMS)
	}
	if w1.FetchCount != 0 || w1.FetchMeanMS != 0 {
		t.Fatalf("window 1 fetch must be empty: %+v", w1)
	}
}

func TestFinalizeSealsTrailingPartial(t *testing.T) {
	m := New(Config{Window: time.Second, Tenants: []TenantConfig{{Name: "g"}}})
	feed(m.Tenant(0), 0, 10, 0, 0)
	m.Tenant(0).FramePresented(1200 * time.Millisecond)
	m.Finalize(1500 * time.Millisecond)
	ws := m.Windows()
	if len(ws) != 2 || !ws[1].Partial || ws[0].Partial {
		t.Fatalf("want one full + one partial window, got %+v", ws)
	}
	// The partial window spans 500 ms with 1 frame: 2 FPS.
	if got := ws[1].Tenants[0].FPS; got != 2 {
		t.Fatalf("partial-window FPS %g, want 2 over the 500ms span", got)
	}
	// Detectors must not have run on the partial window (threshold floor
	// would fire on 2 FPS with a floor configured — here none is, but the
	// window must still be marked).
	if ws[1].EndMS != 1500 {
		t.Fatalf("partial end %.0f, want 1500", ws[1].EndMS)
	}
}

func TestRingEviction(t *testing.T) {
	m := New(Config{Window: time.Second, Ring: 4, Tenants: []TenantConfig{{Name: "g"}}})
	m.Seal(10 * time.Second)
	if m.sealed != 10 {
		t.Fatalf("sealed %d, want 10", m.sealed)
	}
	ws := m.Windows()
	if len(ws) != 4 || ws[0].Index != 6 || ws[3].Index != 9 {
		t.Fatalf("ring retained wrong windows: %+v", ws)
	}
	if m.windowAt(5) != nil || m.windowAt(7) == nil {
		t.Fatal("windowAt disagrees with the ring contents")
	}
}

func TestProbeGaugeAndDelta(t *testing.T) {
	m := New(Config{Window: time.Second, Tenants: []TenantConfig{{Name: "g"}}})
	tn := m.Tenant(0)
	cum := 0.0
	tn.Probe("cum", ProbeDelta, func() float64 { return cum })
	tn.Probe("level", ProbeGauge, func() float64 { return cum * 10 })
	cum = 5
	m.Seal(time.Second)
	cum = 12
	m.Seal(2 * time.Second)
	ws := m.Windows()
	if p := ws[0].Tenants[0].Probes; p[0] != 5 || p[1] != 50 {
		t.Fatalf("window 0 probes %v, want [5 50]", p)
	}
	if p := ws[1].Tenants[0].Probes; p[0] != 7 || p[1] != 120 {
		t.Fatalf("window 1 probes %v, want [7 120]", p)
	}
}

// sealN seals n empty-by-default windows after `prep` mutates the tenant.
func sealWindows(m *Monitor, from, n int, prep func(sec int)) {
	for s := from; s < from+n; s++ {
		if prep != nil {
			prep(s)
		}
		m.Seal(time.Duration(s+1) * time.Second)
	}
}

func TestThresholdDetectorFiresAndHoldsOff(t *testing.T) {
	m := New(Config{
		Window:    time.Second,
		Tenants:   []TenantConfig{{Name: "g", FPSFloor: 30}},
		Detectors: []Spec{{Name: "floor", Class: ClassThreshold, Signal: "fps", TenantLimit: true, Below: true, Consec: 2, Holdoff: 4}},
	})
	tn := m.Tenant(0)
	// 3 healthy seconds, then a sustained collapse.
	sealWindows(m, 0, 3, func(s int) { feed(tn, s, 60, 0, 0) })
	sealWindows(m, 3, 8, func(s int) { feed(tn, s, 10, 0, 0) })
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
		Window:  time.Second,
		Tenants: []TenantConfig{{Name: "g", M2PSLO: 50 * time.Millisecond}},
		Detectors: []Spec{{Name: "burn", Class: ClassBurn, Signal: "m2p_viol_frac",
			FastWindows: 4, SlowWindows: 8, FastBurn: 0.5, SlowBurn: 0.25}},
	})
	tn := m.Tenant(0)
	// One violating window inside healthy ones: fast mean spikes but the
	// slow mean stays low — no fire.
	sealWindows(m, 0, 3, func(s int) { feed(tn, s, 20, 10*time.Millisecond, 0) })
	sealWindows(m, 3, 1, func(s int) { feed(tn, s, 20, 90*time.Millisecond, 0) })
	sealWindows(m, 4, 1, func(s int) { feed(tn, s, 20, 10*time.Millisecond, 0) })
	if n := len(m.Incidents()); n != 0 {
		t.Fatalf("single-window blip fired the burn detector (%d incidents)", n)
	}
	// Sustained violation: both means cross.
	sealWindows(m, 5, 3, func(s int) { feed(tn, s, 20, 90*time.Millisecond, 0) })
	incs := m.Incidents()
	if len(incs) != 1 || incs[0].Class != "burn" {
		t.Fatalf("sustained burn: %+v, want exactly one burn incident", incs)
	}
}

func TestDriftDetectorFiresOnRegimeChangeAndRelearns(t *testing.T) {
	m := New(Config{
		Window:  time.Second,
		Tenants: []TenantConfig{{Name: "g"}},
		Detectors: []Spec{{Name: "drift", Class: ClassDrift, Signal: "probe:load",
			Warmup: 4, Consec: 2, MinDelta: 1, Holdoff: 4}},
	})
	tn := m.Tenant(0)
	level := 100.0
	tn.Probe("load", ProbeGauge, func() float64 { return level })
	sealWindows(m, 0, 6, nil) // warm up and track the 100 regime
	level = 300
	sealWindows(m, 6, 8, nil) // shift regime; then hold it
	incs := m.Incidents()
	if len(incs) != 1 {
		t.Fatalf("%d incidents, want exactly 1 (restart re-learns the new regime)", len(incs))
	}
	if incs[0].Window != 7 || incs[0].Value != 300 || incs[0].Bound != 100 {
		t.Fatalf("drift incident %+v, want fire at window 7 with 300 vs mean 100", incs[0])
	}
	// Shift again after the re-learn: fires once more.
	level = 50
	sealWindows(m, 14, 8, nil)
	if n := len(m.Incidents()); n != 2 {
		t.Fatalf("second regime change: %d incidents, want 2", n)
	}
}

func TestMissingSignalWindowsAreSkipped(t *testing.T) {
	m := New(Config{
		Window:    time.Second,
		Tenants:   []TenantConfig{{Name: "g"}},
		Detectors: []Spec{{Name: "f", Class: ClassThreshold, Signal: "fetch_mean_ms", Limit: 5, Consec: 2}},
	})
	tn := m.Tenant(0)
	// Breach, gap (no fetches → no signal), breach: the gap must not reset
	// consec to zero mid-episode nor count as a breach.
	tn.DemandFetch(100*time.Millisecond, 10*time.Millisecond)
	m.Seal(time.Second)
	m.Seal(2 * time.Second)
	tn.DemandFetch(2100*time.Millisecond, 10*time.Millisecond)
	m.Seal(3 * time.Second)
	if n := len(m.Incidents()); n != 1 {
		t.Fatalf("%d incidents, want 1 (consec survives signal gaps)", n)
	}
}

func TestIncidentContextAndFaultWindows(t *testing.T) {
	m := New(Config{
		Window:    time.Second,
		Context:   4,
		Tenants:   []TenantConfig{{Name: "g", FPSFloor: 30}},
		Detectors: []Spec{{Name: "floor", Class: ClassThreshold, Signal: "fps", TenantLimit: true, Below: true, Consec: 1}},
	})
	tn := m.Tenant(0)
	m.AddFaultWindow(0, "link-collapse", 2*time.Second, 3*time.Second)
	m.AddFaultWindow(1, "other-tenant", 0, 10*time.Second) // must not apply
	sealWindows(m, 0, 2, func(s int) { feed(tn, s, 60, 0, 0) })
	sealWindows(m, 2, 1, func(s int) { feed(tn, s, 5, 0, 0) })
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
			Window:    time.Second,
			Tenants:   []TenantConfig{{Name: "g", FPSFloor: 30, M2PSLO: 50 * time.Millisecond}},
			Detectors: []Spec{{Name: "floor", Class: ClassThreshold, Signal: "fps", TenantLimit: true, Below: true, Consec: 1}},
		})
		tn := m.Tenant(0)
		level := 7.0
		tn.Probe("x", ProbeGauge, func() float64 { return level })
		sealWindows(m, 0, 2, func(s int) { feed(tn, s, 60, 20*time.Millisecond, time.Millisecond) })
		sealWindows(m, 2, 1, func(s int) { feed(tn, s, 5, 20*time.Millisecond, 0) })
		m.Finalize(3500 * time.Millisecond)
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
	m := New(Config{Window: time.Second, Tenants: []TenantConfig{{Name: "g"}}})
	tn := m.Tenant(0)
	tn.Probe("x", ProbeGauge, func() float64 { return 3 })
	sealWindows(m, 0, 3, func(s int) { feed(tn, s, 10+s, 0, 0) })
	r := m.Report()
	fps := r.SignalSeries(0, "fps")
	if len(fps) != 3 || fps[2].Value != 12 {
		t.Fatalf("fps series %+v", fps)
	}
	px := r.SignalSeries(0, "probe:x")
	if len(px) != 3 || px[0].Value != 3 {
		t.Fatalf("probe series %+v", px)
	}
	if r.SignalSeries(0, "probe:missing") != nil || r.SignalSeries(5, "fps") != nil {
		t.Fatal("missing probe / out-of-range tenant must return nil")
	}
	txt := r.FormatText()
	if !strings.Contains(txt, "digest "+r.Digest) || !strings.Contains(txt, "no incidents") {
		t.Fatalf("FormatText missing header fields:\n%s", txt)
	}
}

func TestSignalsRegistryResolves(t *testing.T) {
	names := map[string]bool{}
	for _, s := range builtinSignals {
		if s.Name == "" || s.Desc == "" || names[s.Name] {
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
