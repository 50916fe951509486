package main

import (
	"strings"
	"testing"
	"time"
)

// TestCheckFlags: the shared -apps/-duration/-workers rules apply, an
// unknown -preset is a usage error, and a known one, in any case, resolves
// to the presets it tunes.
func TestCheckFlags(t *testing.T) {
	type flags struct {
		preset   string
		apps     int
		duration time.Duration
		workers  int
	}
	for _, tc := range []struct {
		f  flags
		ok bool
	}{
		{flags{apps: 2, duration: 6 * time.Second, workers: 0}, true},
		{flags{apps: 10, duration: time.Millisecond, workers: 1}, true},
		{flags{apps: -2, duration: 6 * time.Second}, false},
		{flags{apps: 11, duration: 6 * time.Second}, false},
		{flags{apps: 2, duration: 0}, false},
		{flags{apps: 2, duration: 6 * time.Second, workers: -1}, false},
		{flags{preset: "vsoc", apps: 2, duration: 6 * time.Second}, true},
		{flags{preset: "vsoc-noprefetch", apps: 1, duration: 2 * time.Second}, true},
		{flags{preset: "foo", apps: 2, duration: 6 * time.Second}, false},
		{flags{preset: "VSoC", apps: 2, duration: 6 * time.Second}, true},
		{flags{preset: "BOTH", apps: 2, duration: 6 * time.Second}, true},
	} {
		f := tc.f
		if f.preset == "" {
			f.preset = "both"
		}
		presets, err := checkFlags(f.preset, f.apps, f.duration, f.workers)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%+v) = %v, want ok=%v", f, err, tc.ok)
		}
		if want := map[string]int{"both": 2, "vsoc": 1, "vsoc-noprefetch": 1}[strings.ToLower(f.preset)]; err == nil && len(presets) != want {
			t.Errorf("checkFlags(%+v) resolved %d presets, want %d", f, len(presets), want)
		}
	}
}
