package workload

import (
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
)

func emerging(t *testing.T, preset emulator.Preset, cat int, seed int64, dur time.Duration) (*Result, *Session) {
	t.Helper()
	sess := NewSession(preset, hostsim.HighEndDesktop, seed)
	t.Cleanup(sess.Close)
	spec := DefaultSpec(cat, 0, dur)
	r, err := RunEmerging(sess.Emulator, spec)
	if err != nil {
		t.Fatalf("%s/%s: %v", preset.Name, emulator.CategoryNames[cat], err)
	}
	return r, sess
}

func TestSpecDefaults(t *testing.T) {
	s := DefaultSpec(emulator.CatUHDVideo, 0, 0)
	if s.Duration == 0 || s.ContentFPS != 60 || s.Buffers < 3 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.VideoW != UHDWidth || s.DisplayW != UHDWidth {
		t.Fatal("UHD defaults expected")
	}
	if s.FramePeriod() != time.Second/60 {
		t.Fatalf("FramePeriod = %v", s.FramePeriod())
	}
}

func TestFrameBytesModalSizes(t *testing.T) {
	// The paper's two modal region sizes (§2.3): 9.9 MiB display buffers
	// and 15.8 MiB UHD video frames.
	disp := FrameBytes(FHDPWidth, FHDPHeight, 4)
	if got := float64(disp) / (1 << 20); got < 9.8 || got > 10.0 {
		t.Fatalf("display buffer = %.2f MiB, want ~9.9", got)
	}
	vid := FrameBytes(UHDWidth, UHDHeight, 2)
	if got := float64(vid) / (1 << 20); got < 15.7 || got > 15.9 {
		t.Fatalf("UHD frame = %.2f MiB, want ~15.8", got)
	}
}

func TestVSoCRunsVideoAtFullRate(t *testing.T) {
	r, sess := emerging(t, emulator.VSoC(), emulator.CatUHDVideo, 1, 15*time.Second)
	if r.FPS < 55 {
		t.Fatalf("vSoC UHD video = %.1f FPS, want ~60", r.FPS)
	}
	st := sess.SVMStats()
	if st.PrefetchHits < 500 {
		t.Fatalf("PrefetchHits = %d, want most reads prefetched", st.PrefetchHits)
	}
	if acc := st.PredictionAccuracy(); acc < 0.99 {
		t.Fatalf("prediction accuracy = %.3f, want >= 0.99 (§5.2)", acc)
	}
	if ds := st.DirectShare(); ds < 0.95 {
		t.Fatalf("host-direct share = %.2f, want ~0.98 (§5.2)", ds)
	}
}

func TestVideoFPSOrderingAcrossEmulators(t *testing.T) {
	// The Fig. 10 UHD-video ordering: vSoC > GAE > QEMU > LD > BS > Trinity.
	var fps []float64
	for _, p := range emulator.All() {
		r, _ := emerging(t, p, emulator.CatUHDVideo, 7, 15*time.Second)
		fps = append(fps, r.FPS)
	}
	names := []string{"vSoC", "GAE", "QEMU-KVM", "LDPlayer", "Bluestacks", "Trinity"}
	for i := 1; i < len(fps); i++ {
		if fps[i] >= fps[i-1] {
			t.Fatalf("ordering violated: %s %.1f >= %s %.1f (all: %v)",
				names[i], fps[i], names[i-1], fps[i-1], fps)
		}
	}
	// And the headline factor: vSoC at least 1.8x every baseline.
	for i := 1; i < len(fps); i++ {
		if fps[0] < 1.5*fps[i] {
			t.Fatalf("vSoC %.1f not clearly ahead of %s %.1f", fps[0], names[i], fps[i])
		}
	}
}

func TestGuestSyncCoherenceInFig5Regime(t *testing.T) {
	_, sess := emerging(t, emulator.GAE(), emulator.CatUHDVideo, 3, 10*time.Second)
	mean := sess.SVMStats().CoherenceCost.Mean()
	if mean < 4 || mean > 12 {
		t.Fatalf("GAE coherence mean = %.2f ms, want Fig. 5's 5-10ms regime", mean)
	}
}

func TestVSoCCoherenceCheaperThanBaselines(t *testing.T) {
	_, vs := emerging(t, emulator.VSoC(), emulator.CatUHDVideo, 3, 10*time.Second)
	_, ga := emerging(t, emulator.GAE(), emulator.CatUHDVideo, 3, 10*time.Second)
	v, g := vs.SVMStats().CoherenceCost.Mean(), ga.SVMStats().CoherenceCost.Mean()
	if v >= g/2 {
		t.Fatalf("vSoC coherence %.2f ms not well below GAE %.2f ms (Table 2: 62-68%% lower)", v, g)
	}
}

func TestTrinityCannotRunCameraApps(t *testing.T) {
	sess := NewSession(emulator.Trinity(), hostsim.HighEndDesktop, 1)
	defer sess.Close()
	for _, cat := range []int{emulator.CatCamera, emulator.CatAR} {
		if _, err := RunEmerging(sess.Emulator, DefaultSpec(cat, 0, time.Second)); err == nil {
			t.Fatalf("Trinity should not run %s (§5.3)", emulator.CategoryNames[cat])
		}
	}
}

func TestCameraLatencyOrdering(t *testing.T) {
	rv, _ := emerging(t, emulator.VSoC(), emulator.CatCamera, 5, 12*time.Second)
	rg, _ := emerging(t, emulator.GAE(), emulator.CatCamera, 5, 12*time.Second)
	if rv.Latency.Count() == 0 || rg.Latency.Count() == 0 {
		t.Fatal("camera apps must measure motion-to-photon latency")
	}
	v, g := rv.Latency.Mean(), rg.Latency.Mean()
	if v >= g {
		t.Fatalf("vSoC m2p %.1f ms should beat GAE %.1f ms", v, g)
	}
	// The §5.3 band: 35-62% lower latency than baselines.
	if red := (g - v) / g; red < 0.25 {
		t.Fatalf("latency reduction = %.0f%%, want >= 25%%", red*100)
	}
	if rv.FPS < 55 {
		t.Fatalf("vSoC camera FPS = %.1f, want ~60", rv.FPS)
	}
}

func TestLivestreamUsesNICAndCodec(t *testing.T) {
	r, sess := emerging(t, emulator.VSoC(), emulator.CatLivestream, 9, 10*time.Second)
	if r.FPS < 50 {
		t.Fatalf("vSoC livestream FPS = %.1f", r.FPS)
	}
	if r.Latency.Mean() < 40 {
		t.Fatalf("livestream m2p %.1f ms should include the network delay", r.Latency.Mean())
	}
	// NIC flow edges must exist in the twin hypergraphs.
	if sess.Emulator.Manager.Twin().Physical.NumEdges() < 2 {
		t.Fatal("expected multiple physical flows (NIC->codec, codec->GPU)")
	}
}

func TestARSlowerButMeasurable(t *testing.T) {
	r, _ := emerging(t, emulator.VSoC(), emulator.CatAR, 11, 10*time.Second)
	if r.FPS < 40 {
		t.Fatalf("vSoC AR FPS = %.1f, want close to 60", r.FPS)
	}
	if r.Latency.Mean() <= 0 || r.Latency.Mean() > 120 {
		t.Fatalf("AR m2p = %.1f ms, want sub-100ms-class (§1)", r.Latency.Mean())
	}
}

func TestAblationNoPrefetchTanksVideo(t *testing.T) {
	full, _ := emerging(t, emulator.VSoC(), emulator.CatUHDVideo, 13, 12*time.Second)
	abl, sess := emerging(t, emulator.VSoCNoPrefetch(), emulator.CatUHDVideo, 13, 12*time.Second)
	drop := (full.FPS - abl.FPS) / full.FPS
	if drop < 0.4 {
		t.Fatalf("no-prefetch video drop = %.0f%%, want large (paper: 66%%)", drop*100)
	}
	// Fig. 16's mechanism: demand fetches block the render thread.
	st := sess.SVMStats()
	if st.AccessLatency.Percentile(99) < 10 {
		t.Fatalf("write-invalidate p99 access latency = %.1f ms, want >= 10ms tail",
			st.AccessLatency.Percentile(99))
	}
	if abl.DeadlineDrops+abl.StaleDrops == 0 {
		t.Fatal("expected presentation-deadline drops (§5.4)")
	}
}

func TestAblationNoFenceMilder(t *testing.T) {
	full, _ := emerging(t, emulator.VSoC(), emulator.CatUHDVideo, 17, 12*time.Second)
	nf, _ := emerging(t, emulator.VSoCNoFence(), emulator.CatUHDVideo, 17, 12*time.Second)
	np, _ := emerging(t, emulator.VSoCNoPrefetch(), emulator.CatUHDVideo, 17, 12*time.Second)
	if nf.FPS < np.FPS {
		t.Fatalf("no-fence (%.1f) should hurt video less than no-prefetch (%.1f)", nf.FPS, np.FPS)
	}
	if nf.FPS > full.FPS+1 {
		t.Fatalf("no-fence (%.1f) cannot beat full vSoC (%.1f)", nf.FPS, full.FPS)
	}
}

func TestPopularMixCovers25(t *testing.T) {
	mix := PopularMix()
	if len(mix) != 25 {
		t.Fatalf("mix = %d apps, want 25", len(mix))
	}
}

func TestPopularHeavy3DVSoCMatchesTrinity(t *testing.T) {
	// §5.3: "vSoC improves FPS of heavy-3D apps by only 1%" over Trinity.
	run := func(p emulator.Preset) float64 {
		sess := NewSession(p, hostsim.HighEndDesktop, 21)
		defer sess.Close()
		spec := PopularSpec(PopularHeavy3D, 0, 10*time.Second)
		r, err := RunPopular(sess.Emulator, PopularHeavy3D, spec)
		if err != nil {
			t.Fatal(err)
		}
		return r.FPS
	}
	v, tr := run(emulator.VSoC()), run(emulator.Trinity())
	if v < tr-1 {
		t.Fatalf("vSoC heavy-3D %.1f below Trinity %.1f", v, tr)
	}
	if v > tr*1.15 {
		t.Fatalf("vSoC heavy-3D %.1f should be within ~1%% of Trinity %.1f", v, tr)
	}
	g := run(emulator.GAE())
	if g >= tr {
		t.Fatalf("GAE heavy-3D %.1f should trail Trinity %.1f", g, tr)
	}
}

func TestPopularUIAppsBenefitFromSVM(t *testing.T) {
	run := func(p emulator.Preset) float64 {
		sess := NewSession(p, hostsim.HighEndDesktop, 23)
		defer sess.Close()
		spec := PopularSpec(PopularUI, 0, 10*time.Second)
		r, err := RunPopular(sess.Emulator, PopularUI, spec)
		if err != nil {
			t.Fatal(err)
		}
		return r.FPS
	}
	if v, g := run(emulator.VSoC()), run(emulator.GAE()); v <= g {
		t.Fatalf("vSoC UI app %.1f should beat GAE %.1f (Skia over SVM, §5.5)", v, g)
	}
}

func TestMidEndLaptopThermalDegradation(t *testing.T) {
	// §5.3: GAE video starts near 30 FPS on the laptop and degrades to
	// ~10 within a minute from CPU thermal throttling.
	sess := NewSession(emulator.GAE(), hostsim.MidEndLaptop, 31)
	defer sess.Close()
	spec := DefaultSpec(emulator.CatUHDVideo, 0, 100*time.Second)
	r, err := RunEmerging(sess.Emulator, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Machine.Thermal.Throttled() {
		t.Fatal("laptop should be throttled after 100s of GAE video")
	}
	if r.FPS > 25 {
		t.Fatalf("GAE laptop video avg = %.1f FPS, want degraded (<25)", r.FPS)
	}

	// vSoC's hardware decode barely heats the CPU: no throttle, ~full rate.
	sessV := NewSession(emulator.VSoC(), hostsim.MidEndLaptop, 31)
	defer sessV.Close()
	rv, err := RunEmerging(sessV.Emulator, DefaultSpec(emulator.CatUHDVideo, 0, 100*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if sessV.Machine.Thermal.Throttled() {
		t.Fatal("vSoC should not throttle the laptop")
	}
	if rv.FPS < 50 {
		t.Fatalf("vSoC laptop video = %.1f FPS, want ~53+ (§5.3)", rv.FPS)
	}
}

func TestIntegratedCameraLowersLatency(t *testing.T) {
	// §5.3: camera/AR latency ~8-10ms lower on the laptop thanks to the
	// integrated camera.
	hi := NewSession(emulator.VSoC(), hostsim.HighEndDesktop, 33)
	defer hi.Close()
	rHi, err := RunEmerging(hi.Emulator, DefaultSpec(emulator.CatCamera, 0, 12*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	lo := NewSession(emulator.VSoC(), hostsim.MidEndLaptop, 33)
	defer lo.Close()
	rLo, err := RunEmerging(lo.Emulator, DefaultSpec(emulator.CatCamera, 0, 12*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	gap := rHi.Latency.Mean() - rLo.Latency.Mean()
	if gap < 5 || gap > 15 {
		t.Fatalf("laptop camera latency gap = %.1f ms, want ~8-10", gap)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, int) {
		sess := NewSession(emulator.VSoC(), hostsim.HighEndDesktop, 99)
		defer sess.Close()
		r, err := RunEmerging(sess.Emulator, DefaultSpec(emulator.CatLivestream, 2, 8*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return r.FPS, r.Frames
	}
	f1, n1 := run()
	f2, n2 := run()
	if f1 != f2 || n1 != n2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", f1, n1, f2, n2)
	}
}

func TestResultStringForms(t *testing.T) {
	r := &Result{App: "x", Emulator: "vSoC", FPS: 59.9}
	if r.String() == "" {
		t.Fatal("String() empty")
	}
	r.Latency.Add(42)
	if r.Latency.Mean() != 42 {
		t.Fatal("mean latency wrong")
	}
}

func TestConcurrentAppsShareOneEmulator(t *testing.T) {
	// Two apps on one emulator instance contend for the same GPU, PCIe
	// links, and SVM manager — and vSoC still holds the line.
	sess := NewSession(emulator.VSoC(), hostsim.HighEndDesktop, 51)
	defer sess.Close()
	video, err := StartEmerging(sess.Emulator, DefaultSpec(emulator.CatUHDVideo, 0, 12*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cam, err := StartEmerging(sess.Emulator, DefaultSpec(emulator.CatCamera, 1, 12*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sess.Env.RunUntil(video.Stop())
	rv, err := video.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cam.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rv.FPS < 45 || rc.FPS < 45 {
		t.Fatalf("concurrent apps degraded too far: video %.1f, camera %.1f", rv.FPS, rc.FPS)
	}
	// Both pipelines' flows coexist in one twin hypergraph.
	if sess.Emulator.Manager.Twin().Physical.NumEdges() < 3 {
		t.Fatalf("expected flows from both apps, got %d edges",
			sess.Emulator.Manager.Twin().Physical.NumEdges())
	}
}

func TestWaitBeforeDrivenErrors(t *testing.T) {
	sess := NewSession(emulator.VSoC(), hostsim.HighEndDesktop, 53)
	defer sess.Close()
	pd, err := StartEmerging(sess.Emulator, DefaultSpec(emulator.CatUHDVideo, 0, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Wait(); err == nil {
		t.Fatal("Wait before RunUntil should error")
	}
}
