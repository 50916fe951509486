package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestPhasedLoadDeterministic pins the telemetry engine's acceptance run
// (EXPERIMENTS.md): at 30 s / seed 1 the phased-load scenario seals 150
// windows, raises 7 incidents covering all three detector classes, and two
// equal-seed runs produce byte-identical monitor reports.
func TestPhasedLoadDeterministic(t *testing.T) {
	cfg := Config{Duration: 30 * time.Second, Seed: 1}
	a := RunPhasedLoad(cfg)
	b := RunPhasedLoad(cfg)

	if a.Mon.Sealed != 150 {
		t.Fatalf("sealed %d windows, want 150 at 30s / 200ms", a.Mon.Sealed)
	}
	if len(a.Mon.Incidents) != 7 {
		t.Fatalf("%d incidents, want the pinned 7\n%s", len(a.Mon.Incidents), a.Mon.FormatText())
	}
	classes := a.Mon.IncidentsByClass()
	if classes["burn"] != 2 || classes["drift"] != 3 || classes["threshold"] != 2 {
		t.Fatalf("incident classes %v, want burn=2 drift=3 threshold=2", classes)
	}
	// Every incident carries its diagnostic context: a non-empty trigger
	// series, a dominant critical-path component (the profiler is always
	// attached), a captured span-ring snippet, and a digest.
	for _, inc := range a.Mon.Incidents {
		if len(inc.Series) == 0 || inc.Digest == "" || inc.Dominant == "" || inc.TraceEvents == 0 {
			t.Fatalf("incident %d missing context: %+v", inc.Seq, inc)
		}
	}
	// The fault-phase incidents must name the injected link collapse.
	fault := false
	for _, inc := range a.Mon.Incidents {
		for _, f := range inc.ActiveFaults {
			if strings.Contains(f, "link-collapse") {
				fault = true
			}
		}
	}
	if !fault {
		t.Fatal("no incident overlapped the announced link-collapse fault window")
	}

	aj, err := json.Marshal(a.Mon)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Mon)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("equal seeds diverged: digests %s vs %s", a.Mon.Digest, b.Mon.Digest)
	}
	if a.FPS <= 0 || a.Frames == 0 || len(a.Phases) != 4 {
		t.Fatalf("degenerate scenario result: fps=%g frames=%d phases=%d", a.FPS, a.Frames, len(a.Phases))
	}

}

// TestShardScaleMonitorDeterministicAcrossCounts pins the barrier-sealing
// contract (EXPERIMENTS.md): the shardscale farm's monitor report seals
// windows, sees every frame the fleet layer sees (the two share each
// guest's hooks through a tee), and is a pure function of the seed.
// TestShardScaleFleetDeterministicAcrossCounts checks that the two layers
// leave the simulation alone.
func TestShardScaleMonitorDeterministicAcrossCounts(t *testing.T) {
	cfg := Config{Duration: 2 * time.Second, Seed: 1}
	res := RunShardScale(cfg)
	base := res.Mon
	if base.Sealed == 0 || base.Digest == "" {
		t.Fatalf("degenerate monitor report: sealed=%d digest=%q", base.Sealed, base.Digest)
	}
	// Frames flow into both windows and totals.
	var frames uint64
	for _, w := range base.Windows {
		for _, s := range w.Tenants {
			frames += uint64(s.Frames)
		}
	}
	var fleetFrames uint64
	for _, tr := range res.Fleet.Tenants {
		fleetFrames += tr.Frames
	}
	if frames == 0 || frames != fleetFrames {
		t.Fatalf("monitor saw %d frames, fleet %d — tee unwired", frames, fleetFrames)
	}

	if again := RunShardScale(cfg).Mon.Digest; again != base.Digest {
		t.Errorf("equal-seed rerun's monitor digest %s, want %s", again, base.Digest)
	}
}
