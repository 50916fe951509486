package fleetobs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// counterValue reads a counter through the registry's snapshot.
func counterValue(reg *obs.Registry, name string) int64 {
	for _, e := range reg.Snapshot() {
		if e.Kind == "counter" && e.Name == name {
			return e.Count
		}
	}
	return 0
}

// feedTenant drives a synthetic steady guest: fps frames per second for
// secs seconds, with every frame carrying an m2p latency.
func feedTenant(t *Tenant, fps int, secs int, m2p time.Duration) {
	for s := 0; s < secs; s++ {
		for i := 0; i < fps; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Second/time.Duration(fps+1)
			t.FramePresented(at)
			t.MotionToPhoton(at, m2p)
		}
	}
}

// TestEmptyTenantReport pins the dead-guest edge: a tenant that never
// presented a frame violates its floor every second and reports clean
// zeros (no NaN) everywhere else.
func TestEmptyTenantReport(t *testing.T) {
	f := New(Config{Tenants: []TenantConfig{{Name: "dead", FPSFloor: 30, M2PSLO: 50 * time.Millisecond}}})
	r := f.Report(3 * time.Second)
	tr := r.Tenants[0]
	if tr.Frames != 0 || tr.MeanFPS != 0 {
		t.Fatalf("empty tenant has frames: %+v", tr)
	}
	if tr.FloorAttainment != 0 || tr.FloorViolations != 3 {
		t.Fatalf("empty tenant floor attainment = %g (%d violations), want 0 (3)", tr.FloorAttainment, tr.FloorViolations)
	}
	if tr.M2PAttainment != 1 {
		t.Fatalf("no m2p samples must be vacuously attained, got %g", tr.M2PAttainment)
	}
	if tr.M2PP99MS != 0 || tr.FetchP99MS != 0 {
		t.Fatalf("empty percentiles must be 0: %+v", tr)
	}
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(js, []byte("NaN")) || bytes.Contains(js, []byte("Inf")) {
		t.Fatalf("report JSON contains non-finite values:\n%s", js)
	}
}

func TestTenantAttainmentAndViolations(t *testing.T) {
	f := New(Config{Tenants: []TenantConfig{{Name: "g", FPSFloor: 30, M2PSLO: 50 * time.Millisecond}}})
	tn := f.Tenant(0)
	feedTenant(tn, 40, 2, 20*time.Millisecond) // seconds 0,1 healthy
	// Second 2: collapsed to 10 FPS with SLO-busting latency.
	for i := 0; i < 10; i++ {
		at := 2*time.Second + time.Duration(i)*90*time.Millisecond
		tn.FramePresented(at)
		tn.MotionToPhoton(at, 120*time.Millisecond)
	}
	r := f.Report(3 * time.Second)
	tr := r.Tenants[0]
	if tr.FloorViolations != 1 || tr.FloorAttainment < 0.66 || tr.FloorAttainment > 0.67 {
		t.Fatalf("floor: %d violations, attainment %g; want 1, ~0.667", tr.FloorViolations, tr.FloorAttainment)
	}
	wantM2P := float64(80) / 90
	if tr.M2PViolations != 10 || tr.M2PAttainment < wantM2P-0.01 || tr.M2PAttainment > wantM2P+0.01 {
		t.Fatalf("m2p: %d violations, attainment %g; want 10, ~%.3f", tr.M2PViolations, tr.M2PAttainment, wantM2P)
	}
	if got := tn.floorViolationSeconds(3 * time.Second); len(got) != 1 || got[0] != 2 {
		t.Fatalf("violation seconds = %v, want [2]", got)
	}
}

func TestStragglerDetection(t *testing.T) {
	var cfg Config
	for _, n := range []string{"a", "b", "c", "d"} {
		cfg.Tenants = append(cfg.Tenants, TenantConfig{Name: n})
	}
	f := New(cfg)
	for i := 0; i < 4; i++ {
		lat := 2 * time.Millisecond
		if i == 3 {
			lat = 40 * time.Millisecond // way past 1.5x the fleet median
		}
		for k := 0; k < 50; k++ {
			f.Tenant(i).DemandFetch(time.Duration(k)*time.Millisecond, lat)
		}
	}
	r := f.Report(time.Second)
	if len(r.Fleet.Stragglers) != 1 || r.Fleet.Stragglers[0] != "d" {
		t.Fatalf("stragglers = %v, want [d]", r.Fleet.Stragglers)
	}
	for _, tr := range r.Tenants {
		if tr.Straggler != (tr.Name == "d") {
			t.Fatalf("straggler flag wrong on %q", tr.Name)
		}
	}
}

// TestReportStableAcrossBuilds feeds two fleets identically and requires
// byte-identical text and JSON renderings — the per-run half of the
// byte-identity contract.
func TestReportStableAcrossBuilds(t *testing.T) {
	build := func() *Report {
		f := New(Config{Tenants: []TenantConfig{
			{Name: "uhd", FPSFloor: 30},
			{Name: "cam", FPSFloor: 30, M2PSLO: 80 * time.Millisecond},
		}})
		feedTenant(f.Tenant(0), 58, 3, 0)
		feedTenant(f.Tenant(1), 33, 3, 25*time.Millisecond)
		for k := 0; k < 40; k++ {
			f.Tenant(0).DemandFetch(time.Duration(k)*time.Millisecond, time.Duration(1+k%7)*time.Millisecond)
		}
		return f.Report(3 * time.Second)
	}
	a, b := build(), build()
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if !bytes.Equal(aj, bj) {
		t.Fatalf("JSON not stable:\n%s\nvs\n%s", aj, bj)
	}
	if a.FormatText() != b.FormatText() {
		t.Fatalf("text not stable")
	}
}

// stallRig builds n environments with rescheduling timers until 20ms.
func stallRig(n int, seed int64) []*sim.Env {
	envs := make([]*sim.Env, n)
	for i := range envs {
		e := sim.NewEnv(seed + int64(i))
		var tick func()
		tick = func() {
			if e.Now() < 20*time.Millisecond {
				e.After(time.Duration(50+e.Rand().Intn(200))*time.Microsecond, tick)
			}
		}
		e.After(time.Millisecond, tick)
		envs[i] = e
	}
	return envs
}

// TestStallAttributionCoverage drives a real shard group under the fleet
// observer: the wall-clock split counts every window, the window event
// counts cover every executed event, and the table renders.
func TestStallAttributionCoverage(t *testing.T) {
	envs := stallRig(4, 10)
	for _, e := range envs {
		defer e.Close()
	}
	g := sim.NewShardGroup(500*time.Microsecond, 1, envs...)
	defer g.Close()
	f := New(Config{Tenants: []TenantConfig{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}})
	f.Attach(g, nil)
	g.RunUntil(25 * time.Millisecond)

	sr := f.StallReport()
	rep := f.Report(25 * time.Millisecond)
	if sr.Windows == 0 || sr.Windows != rep.Sched.Windows {
		t.Fatalf("stall report has %d windows, fleet report %d", sr.Windows, rep.Sched.Windows)
	}
	if rep.Sched.Events != g.ExecutedEvents() {
		t.Fatalf("window events sum to %d, group executed %d", rep.Sched.Events, g.ExecutedEvents())
	}
	if sr.WallExec <= 0 {
		t.Fatalf("window execution time not measured: %+v", sr)
	}
	if !strings.Contains(sr.FormatText(), fmt.Sprintf("%d windows", sr.Windows)) {
		t.Fatalf("stall table missing the window count:\n%s", sr.FormatText())
	}
}

// TestHostCountersShareTheirWindowBarrier drives a shard group with a
// shared host under a traced fleet: the host counters of each window are
// stamped at that window's barrier instant, the one its sched counters
// carry, though the host hook runs before the fleet's clock reaches it.
func TestHostCountersShareTheirWindowBarrier(t *testing.T) {
	envs := stallRig(2, 20)
	machs := make([]*hostsim.Machine, len(envs))
	for i, e := range envs {
		defer e.Close()
		machs[i] = hostsim.HighEndDesktop(e)
	}
	g := sim.NewShardGroup(500*time.Microsecond, 1, envs...)
	defer g.Close()
	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{}, machs...)
	sh.Attach(g)
	tr := obs.NewTracer()
	f := New(Config{Tenants: []TenantConfig{{Name: "a"}, {Name: "b"}}, Tracer: tr})
	f.Attach(g, sh)
	g.RunUntil(15 * time.Millisecond) // ticks run past the bound: no idle tail

	var sched, host []time.Duration
	for _, ev := range tr.Events() {
		switch {
		case ev.Phase != obs.PhaseCounter:
		case tr.TrackName(ev.Track) == "fleet:sched" && ev.Name == "events":
			sched = append(sched, ev.At)
		case tr.TrackName(ev.Track) == "fleet:host" && ev.Name == "scale":
			host = append(host, ev.At)
		}
	}
	if len(sched) == 0 || len(host) != len(sched) {
		t.Fatalf("%d sched windows, %d host windows: want equal and nonzero", len(sched), len(host))
	}
	for i := range sched {
		if host[i] != sched[i] {
			t.Fatalf("window %d: host counters at %v, sched counters at %v", i, host[i], sched[i])
		}
	}
}

// TestViolationSpansAndCounters checks the trace/metrics side: violation
// spans land on the tenant track with virtual timestamps, and the registry
// carries the window-count sanity metric.
func TestViolationSpansAndCounters(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	f := New(Config{
		Tenants:  []TenantConfig{{Name: "g0", FPSFloor: 30}},
		Tracer:   tr,
		Registry: reg,
	})
	feedTenant(f.Tenant(0), 40, 1, 0) // second 0 healthy
	// seconds 1-2 silent: floor violations
	f.ShardWindow(&sim.ShardWindowStats{
		Base: 0, Limit: 2 * time.Millisecond, Lookahead: 2 * time.Millisecond, Events: 10,
	})
	f.Finalize(3 * time.Second)

	var viol int
	for _, ev := range tr.Events() {
		if ev.Name == "fps-floor-violation" {
			viol++
			if ev.At != time.Second || ev.Dur != 2*time.Second {
				t.Fatalf("violation span [%v +%v], want [1s +2s]", ev.At, ev.Dur)
			}
		}
	}
	if viol != 1 {
		t.Fatalf("spans: %d violation, want 1", viol)
	}
	if got := counterValue(reg, "shard.window.count"); got != 1 {
		t.Fatalf("shard.window.count = %d, want 1", got)
	}
}

// TestDisabledPathZeroAlloc pins the house rule: a shard group without an
// observer allocates nothing extra per window, and the emulator-facing
// tenant hooks allocate nothing per frame in steady state.
func TestDisabledPathZeroAlloc(t *testing.T) {
	e := sim.NewEnv(7)
	defer e.Close()
	g := sim.NewShardGroup(time.Millisecond, 1, e)
	defer g.Close()
	var at time.Duration
	if allocs := testing.AllocsPerRun(50, func() {
		at += 2 * time.Millisecond
		e.After(time.Millisecond, func() {})
		g.RunUntil(at)
	}); allocs != 0 {
		t.Fatalf("unobserved shard window allocates %.1f per run, want 0", allocs)
	}

	tn := newTenant(TenantConfig{Name: "g", FPSFloor: 30, M2PSLO: time.Millisecond}, 0)
	tn.FramePresented(10 * time.Second) // pre-grow the per-second buckets
	if allocs := testing.AllocsPerRun(100, func() {
		tn.FramePresented(5 * time.Second)
		tn.FrameDropped(5 * time.Second)
		tn.DemandFetch(5*time.Second, time.Millisecond)
		tn.MotionToPhoton(5*time.Second, 500*time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("steady-state tenant hooks allocate %.1f per run, want 0", allocs)
	}
}

// TestStallAttributionSingleShard pins the degenerate shape: a group of one
// environment still produces a report, and the per-shard rows stay empty,
// as StallShard documents.
func TestStallAttributionSingleShard(t *testing.T) {
	envs := stallRig(1, 40)
	defer envs[0].Close()
	g := sim.NewShardGroup(500*time.Microsecond, 1, envs...)
	defer g.Close()
	f := New(Config{Tenants: []TenantConfig{{Name: "a"}}})
	f.Attach(g, nil)
	g.RunUntil(25 * time.Millisecond)

	sr := f.StallReport()
	if sr.Windows == 0 || sr.WallExec <= 0 {
		t.Fatalf("stall report: %d windows, exec %v", sr.Windows, sr.WallExec)
	}
	if len(sr.Shards) != 0 {
		t.Fatalf("stall report has %d shard rows, want none", len(sr.Shards))
	}
}
