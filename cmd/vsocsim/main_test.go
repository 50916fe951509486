package main

import "testing"

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
