package main

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestCheckFlags: app counts outside the paper's app tables, non-positive
// durations, negative worker counts, unknown experiments, and output or
// behaviour flags no selected experiment honours are usage errors; the
// bounds themselves, and every Makefile invocation's flags, are accepted.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		exp                   string
		apps, popular         int
		duration              time.Duration
		workers               int
		trace, profile, json_ string
		fetch, metrics        bool
		monout                string
		ok                    bool
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

		// -exp resolution.
		{exp: "fig13,fig14", ok: true},
		{exp: "table2,nosuch", ok: false},
		{exp: " , ", ok: false},

		// Output flags must reach a selected experiment that writes them.
		{exp: "table2", profile: "p.folded", trace: "t.json", ok: false},
		{exp: "table2", trace: "t.json", ok: false},
		{exp: "table2", profile: "p.folded", ok: false},
		{exp: "table1", json_: "t.json", ok: false},
		{exp: "all", profile: "p.folded", ok: false},
		{exp: "all", trace: "t.json", json_: "t.json", ok: true},
		{exp: "table1,table2", json_: "t.json", ok: true},

		// So must the behaviour flags.
		{exp: "table2", monout: "m.json", ok: false},
		{exp: "table2", fetch: true, ok: false},
		{exp: "micro", fetch: true, metrics: true, ok: false},
		{exp: "micro", fetch: true, ok: true},
		{exp: "fig16", fetch: true, ok: true},
		{exp: "batching", fetch: true, ok: false},
		{exp: "all", fetch: true, metrics: true, ok: true},
		{exp: "overhead", metrics: true, ok: true},
		{exp: "table2", metrics: true, ok: false},
		{exp: "fig10", monout: "m.json", ok: false},
		{exp: "shardscale", monout: "m.json", ok: true},
		{exp: "phasedload", monout: "m.json", ok: true},
		{exp: "phasedload,shardscale", monout: "m.json", ok: true},

		// The Makefile's invocations.
		{exp: "robustness", ok: true},
		{exp: "robustness", trace: "/tmp/vsoc-trace.json", metrics: true, ok: true},
		{exp: "shardscale", trace: "/tmp/vsoc-shardscale.json", ok: true},
		{exp: "phasedload", ok: true},
		{exp: "phasedload", monout: "/tmp/vsoc-mon-a.json", ok: true},
		{exp: "micro,shardscale,phasedload,study,all", fetch: true, json_: "/tmp/vsoc-bench.json", profile: "/tmp/vsoc-bench.folded", ok: true},
	} {
		// The count cases run -exp all; the -exp cases valid counts.
		exp := tc.exp
		cfg := experiments.Config{
			AppsPerCategory: tc.apps, PopularApps: tc.popular,
			Duration: tc.duration, Workers: tc.workers,
			TracePath: tc.trace, ProfilePath: tc.profile,
			Fetch: tc.fetch, Metrics: tc.metrics, MonPath: tc.monout,
		}
		if exp == "" {
			exp = "all"
		} else {
			cfg.AppsPerCategory, cfg.PopularApps, cfg.Duration = 2, 6, 8*time.Second
		}
		_, _, err := checkFlags(exp, cfg, tc.json_)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %+v, %q) = %v, want ok=%v", exp, cfg, tc.json_, err, tc.ok)
		}
	}
}
