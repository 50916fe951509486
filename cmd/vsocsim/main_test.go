package main

import (
	"testing"
	"time"
)

// TestCheckFarmFlags: farm flags that would otherwise be ignored — a
// negative guest count, -fleet without farm mode — are usage errors.
func TestCheckFarmFlags(t *testing.T) {
	for _, tc := range []struct {
		guests int
		fleet  bool
		ok     bool
	}{
		{guests: 0, fleet: false, ok: true},
		{guests: 4, fleet: false, ok: true},
		{guests: 4, fleet: true, ok: true},
		{guests: -1, fleet: false, ok: false},
		{guests: -1, fleet: true, ok: false},
		{guests: 0, fleet: true, ok: false},
	} {
		if err := checkFarmFlags(tc.guests, tc.fleet); (err == nil) != tc.ok {
			t.Errorf("checkFarmFlags(%d, %v) = %v, want ok=%v", tc.guests, tc.fleet, err, tc.ok)
		}
	}
}

// TestCheckFlags: a non-positive duration is a usage error in both modes,
// on top of the farm-flag rules.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		duration time.Duration
		guests   int
		ok       bool
	}{
		{duration: 30 * time.Second, guests: 0, ok: true},
		{duration: time.Millisecond, guests: 4, ok: true},
		{duration: 0, guests: 0, ok: false},
		{duration: -5 * time.Second, guests: 0, ok: false},
		{duration: 0, guests: 4, ok: false},
		{duration: 30 * time.Second, guests: -1, ok: false},
	} {
		if err := checkFlags(tc.duration, tc.guests, false); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %d, false) = %v, want ok=%v", tc.duration, tc.guests, err, tc.ok)
		}
	}
}
