package main

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestCheckFarmFlags: farm flags that would otherwise be ignored — a
// negative guest count, -fleet without farm mode, -v in farm mode — are
// usage errors.
func TestCheckFarmFlags(t *testing.T) {
	for _, tc := range []struct {
		guests         int
		fleet, verbose bool
		ok             bool
	}{
		{guests: 0, ok: true},
		{guests: 4, ok: true},
		{guests: 4, fleet: true, ok: true},
		{guests: 0, verbose: true, ok: true},
		{guests: -1, ok: false},
		{guests: -1, fleet: true, ok: false},
		{guests: 0, fleet: true, ok: false},
		{guests: 4, verbose: true, ok: false},
		{guests: 4, fleet: true, verbose: true, ok: false},
	} {
		if err := checkFarmFlags(tc.guests, tc.fleet, tc.verbose); (err == nil) != tc.ok {
			t.Errorf("checkFarmFlags(%d, %v, %v) = %v, want ok=%v", tc.guests, tc.fleet, tc.verbose, err, tc.ok)
		}
	}
}

// TestCheckFlags: a non-positive duration and a -monout no monitor would
// write are usage errors in both modes, on top of the farm-flag rules.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		duration time.Duration
		guests   int
		mon      bool
		monPath  string
		ok       bool
	}{
		{duration: 30 * time.Second, guests: 0, ok: true},
		{duration: time.Millisecond, guests: 4, ok: true},
		{duration: 0, guests: 0, ok: false},
		{duration: -5 * time.Second, guests: 0, ok: false},
		{duration: 0, guests: 4, ok: false},
		{duration: 30 * time.Second, guests: -1, ok: false},
		{duration: time.Second, mon: true, ok: true},
		{duration: time.Second, mon: true, monPath: "mon.json", ok: true},
		{duration: time.Second, guests: 2, mon: true, monPath: "mon.json", ok: true},
		{duration: time.Second, monPath: "mon.json", ok: false},
		{duration: time.Second, guests: 2, monPath: "mon.json", ok: false},
	} {
		cfg := experiments.Config{Duration: tc.duration, Monitor: tc.mon, MonPath: tc.monPath}
		if err := checkFlags(cfg, tc.guests, false); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, -guests %d, -mon %v, -monout %q) = %v, want ok=%v",
				tc.duration, tc.guests, tc.mon, tc.monPath, err, tc.ok)
		}
	}
}
