package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestFleetFixtureRecognized pins the §13 telemetry tracks: a trace carrying
// fleet:sched / fleet:host counter tracks and a tenant violation track must
// validate cleanly with no unknown-track warnings.
func TestFleetFixtureRecognized(t *testing.T) {
	s, err := checkFile(filepath.Join("testdata", "fleet.json"))
	if err != nil {
		t.Fatalf("fleet fixture failed validation: %v", err)
	}
	want := []string{"fleet:host", "fleet:sched", "svm:proto", "tenant:g0:UHD Video"}
	if !reflect.DeepEqual(s.tracks, want) {
		t.Fatalf("tracks = %v, want %v", s.tracks, want)
	}
	if len(s.unknown) != 0 {
		t.Fatalf("fleet tracks flagged unknown: %v", s.unknown)
	}
	if s.counters != 5 || s.spans != 2 {
		t.Fatalf("counted %d counters, %d spans; want 5, 2", s.counters, s.spans)
	}
}

// TestUnknownTrackWarnsNotFails: an unrecognized track name is surfaced but
// does not fail validation — new exporter families must not break an old
// checker.
func TestUnknownTrackWarnsNotFails(t *testing.T) {
	s, err := checkFile(filepath.Join("testdata", "unknown-track.json"))
	if err != nil {
		t.Fatalf("unknown track must not fail validation: %v", err)
	}
	if !reflect.DeepEqual(s.unknown, []string{"mystery-track"}) {
		t.Fatalf("unknown = %v, want [mystery-track]", s.unknown)
	}
}

func TestKnownTrackFamilies(t *testing.T) {
	for _, name := range []string{
		"dev:gpu", "faults", "fences", "fleet:sched", "fleet:host",
		"link:pcie", "prefetch", "svm:proto",
		"tenant:g3:Camera", "thermal", "vq:gpu-vq",
	} {
		if !knownTrack(name) {
			t.Errorf("knownTrack(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"mystery", "Fleet:sched", "ten", "irq:camera"} {
		if knownTrack(name) {
			t.Errorf("knownTrack(%q) = true, want false", name)
		}
	}
}
