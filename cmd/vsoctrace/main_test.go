package main

import (
	"testing"
	"time"
)

// TestCheckFlags: an unknown figure, an app count outside the Table 1
// category size and a non-positive duration are usage errors.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		fig, apps int
		duration  time.Duration
		ok        bool
	}{
		{fig: 0, apps: 10, duration: 30 * time.Second, ok: true},
		{fig: 6, apps: 1, duration: time.Millisecond, ok: true},
		{fig: 3, apps: 10, duration: 30 * time.Second, ok: false},
		{fig: 0, apps: -1, duration: 30 * time.Second, ok: false},
		{fig: 0, apps: 0, duration: 30 * time.Second, ok: false},
		{fig: 0, apps: 11, duration: 30 * time.Second, ok: false},
		{fig: 0, apps: 10, duration: 0, ok: false},
		{fig: 0, apps: 10, duration: -time.Second, ok: false},
	} {
		if err := checkFlags(tc.fig, tc.apps, tc.duration); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %v) = %v, want ok=%v", tc.fig, tc.apps, tc.duration, err, tc.ok)
		}
	}
}
