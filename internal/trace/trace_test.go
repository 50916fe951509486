package trace

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/workload"
)

const ms = time.Millisecond

func TestTopUsersRanking(t *testing.T) {
	c := NewCollector()
	c.Record(Event{Caller: "a", Region: 1, Bytes: 100, Write: true})
	c.Record(Event{Caller: "b", Region: 1, Bytes: 300})
	c.Record(Event{Caller: "c", Region: 2, Bytes: 50, Write: true})
	top := c.TopUsers(2)
	if len(top) != 2 || top[0].Caller != "b" || top[1].Caller != "a" {
		t.Fatalf("TopUsers = %+v", top)
	}
	if top[0].Share < 0.66 || top[0].Share > 0.67 {
		t.Fatalf("share = %v, want 300/450", top[0].Share)
	}
}

func TestFewSharerFraction(t *testing.T) {
	c := NewCollector()
	c.Record(Event{Caller: "a", Region: 1, Bytes: 1, Write: true})
	c.Record(Event{Caller: "b", Region: 1, Bytes: 1})
	c.Record(Event{Caller: "a", Region: 2, Bytes: 1, Write: true})
	c.Record(Event{Caller: "b", Region: 2, Bytes: 1})
	c.Record(Event{Caller: "c", Region: 2, Bytes: 1})
	if got := c.FewSharerFraction(); got != 0.5 {
		t.Fatalf("FewSharerFraction = %v, want 0.5", got)
	}
}

func TestCyclicFractionOnPipeline(t *testing.T) {
	c := NewCollector()
	// Perfect W/R cycle between two parties.
	for i := 0; i < 10; i++ {
		c.Record(Event{Caller: "w", Region: 7, Bytes: 1, Write: true})
		c.Record(Event{Caller: "r", Region: 7, Bytes: 1})
	}
	if got := c.CyclicFraction(); got < 0.95 {
		t.Fatalf("CyclicFraction = %v, want ~1 for a pipeline", got)
	}
}

func TestCallRate(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 50; i++ {
		c.Record(Event{Caller: "a", Region: 1, Bytes: 1})
	}
	if got := c.CallRate(10 * time.Second); got != 5 {
		t.Fatalf("CallRate = %v, want 5", got)
	}
}

// TestMergeEqualsOneStream: merging a second collector equals recording
// both event streams into one collector, the second with its regions
// shifted past the first's highest region.
func TestMergeEqualsOneStream(t *testing.T) {
	a := []Event{
		{Caller: "w", Region: 1, Bytes: 10, Write: true},
		{Caller: "r", Region: 1, Bytes: 10},
		{Caller: "w", Region: 3, Bytes: 5, Write: true},
	}
	b := []Event{
		{Caller: "w", Region: 1, Bytes: 7, Write: true},
		{Caller: "x", Region: 2, Bytes: 7},
		{Caller: "r", Region: 1, Bytes: 7},
		{Caller: "w", Region: 2, Bytes: 1, Write: true},
	}
	merged, other, whole := NewCollector(), NewCollector(), NewCollector()
	for _, ev := range a {
		merged.Record(ev)
		whole.Record(ev)
	}
	for _, ev := range b {
		other.Record(ev)
		ev.Region += 4 // past a's highest region, 3
		whole.Record(ev)
	}
	merged.Merge(other)
	merged.Merge(NewCollector()) // an empty merge changes nothing
	if !reflect.DeepEqual(merged, whole) {
		t.Fatalf("merged collector %+v, want %+v", merged, whole)
	}
	// The merged copy is independent of its source.
	other.Record(Event{Caller: "late", Region: 1, Bytes: 1})
	if len(merged.regions[5].callers) != 2 {
		t.Fatalf("merged region tracks a later write to its source: %v", merged.regions[5].callers)
	}
}

func TestAndroidServiceMapping(t *testing.T) {
	cases := map[string]string{
		"codec": "media-service", "gpu": "surfaceflinger", "display": "surfaceflinger",
		"camera": "camera-service", "isp": "camera-service", "cpu": "app-process",
		"unknown-dev": "unknown-dev",
	}
	for dev, want := range cases {
		if got := AndroidServiceOf(dev); got != want {
			t.Errorf("AndroidServiceOf(%q) = %q, want %q", dev, got, want)
		}
	}
}

func TestAttachedCollectorReproducesStudyObservations(t *testing.T) {
	// Run the app mix with collectors attached and check the §2.3
	// observations hold: hardware services dominate, regions serve few
	// processes, and accesses are overwhelmingly cyclic.
	c := NewCollector()
	for _, cat := range []int{emulator.CatUHDVideo, emulator.CatCamera, emulator.CatLivestream} {
		sess := workload.NewSession(emulator.VSoC(), hostsim.HighEndDesktop, 3)
		app := NewCollector()
		Attach(sess.Emulator.Manager, app, AndroidServiceOf)
		spec := workload.DefaultSpec(cat, 0, 10*time.Second)
		if _, err := workload.RunEmerging(sess.Emulator, spec); err != nil {
			t.Fatal(err)
		}
		c.Merge(app)
		sess.Close()
	}
	if c.events < 1000 {
		t.Fatalf("events = %d, want a busy trace", c.events)
	}
	top := c.TopUsers(3)
	if len(top) < 3 {
		t.Fatalf("top users = %+v", top)
	}
	// The top users are hardware-related services with the dominant share
	// of traffic (§2.3: media service 28%, SurfaceFlinger 23%, camera
	// service 19%).
	hwShare := 0.0
	for _, u := range top {
		switch u.Caller {
		case "media-service", "surfaceflinger", "camera-service":
			hwShare += u.Share
		}
	}
	if hwShare < 0.6 {
		t.Fatalf("hardware services carry only %.0f%% of traffic (top: %+v)", hwShare*100, top)
	}
	if f := c.FewSharerFraction(); f < 0.9 {
		t.Fatalf("FewSharerFraction = %.2f, want ~0.99", f)
	}
	if f := c.CyclicFraction(); f < 0.8 {
		t.Fatalf("CyclicFraction = %.2f, want ~0.96", f)
	}
	if rate := c.CallRate(30 * time.Second); rate < 100 {
		t.Fatalf("call rate = %.0f/s, want a few hundred (§2.3: 261-323)", rate)
	}
}
