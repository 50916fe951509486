package main

import (
	"testing"
	"time"
)

// TestCheckFlags: app counts outside the paper's app tables, non-positive
// durations and negative worker counts are usage errors; the bounds
// themselves are accepted.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		apps, popular int
		duration      time.Duration
		workers       int
		ok            bool
	}{
		{apps: 10, popular: 25, duration: 30 * time.Second, workers: 0, ok: true},
		{apps: 1, popular: 1, duration: time.Millisecond, workers: 1, ok: true},
		{apps: 2, popular: 3, duration: 5 * time.Second, workers: 4, ok: true},
		{apps: 0, popular: 25, duration: 30 * time.Second, ok: false},
		{apps: -1, popular: 25, duration: 30 * time.Second, ok: false},
		{apps: 11, popular: 25, duration: 30 * time.Second, ok: false},
		{apps: 10, popular: 0, duration: 30 * time.Second, ok: false},
		{apps: 10, popular: -3, duration: 30 * time.Second, ok: false},
		{apps: 10, popular: 26, duration: 30 * time.Second, ok: false},
		{apps: 10, popular: 25, duration: 0, ok: false},
		{apps: 10, popular: 25, duration: -time.Second, ok: false},
		{apps: 10, popular: 25, duration: 30 * time.Second, workers: -1, ok: false},
	} {
		err := checkFlags(tc.apps, tc.popular, tc.duration, tc.workers)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %v, %d) = %v, want ok=%v",
				tc.apps, tc.popular, tc.duration, tc.workers, err, tc.ok)
		}
	}
}
