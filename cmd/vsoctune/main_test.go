package main

import (
	"testing"
	"time"
)

// TestCheckFlags: the shared -apps/-duration/-workers rules apply, and a
// search size below one is a usage error rather than a silent default.
func TestCheckFlags(t *testing.T) {
	type flags struct {
		apps                       int
		duration                   time.Duration
		workers, budget, rand, pat int
	}
	ok := flags{apps: 2, duration: 6 * time.Second, workers: 0, budget: 40, rand: 6, pat: 2}
	for _, tc := range []struct {
		f  flags
		ok bool
	}{
		{ok, true},
		{flags{apps: 10, duration: time.Millisecond, workers: 1, budget: 1, rand: 1, pat: 1}, true},
		{flags{apps: -2, duration: 6 * time.Second, budget: 40, rand: 6, pat: 2}, false},
		{flags{apps: 11, duration: 6 * time.Second, budget: 40, rand: 6, pat: 2}, false},
		{flags{apps: 2, duration: 0, budget: 40, rand: 6, pat: 2}, false},
		{flags{apps: 2, duration: 6 * time.Second, workers: -1, budget: 40, rand: 6, pat: 2}, false},
		{flags{apps: 2, duration: 6 * time.Second, budget: -1, rand: 6, pat: 2}, false},
		{flags{apps: 2, duration: 6 * time.Second, budget: 0, rand: 6, pat: 2}, false},
		{flags{apps: 2, duration: 6 * time.Second, budget: 40, rand: -3, pat: 2}, false},
		{flags{apps: 2, duration: 6 * time.Second, budget: 40, rand: 6, pat: -1}, false},
	} {
		f := tc.f
		err := checkFlags(f.apps, f.duration, f.workers, f.budget, f.rand, f.pat)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%+v) = %v, want ok=%v", f, err, tc.ok)
		}
	}
}
