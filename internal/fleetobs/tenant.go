package fleetobs

import (
	"time"

	"repro/internal/obs"
)

// TenantConfig declares one guest's QoS contract.
type TenantConfig struct {
	// Name labels the tenant in the report and its trace track.
	Name string
	// FPSFloor is the minimum presented frames per whole virtual second;
	// a second below the floor is a violation. 0 disables floor tracking.
	FPSFloor float64
	// M2PSLO bounds motion-to-photon latency; a measured sample above it
	// is a violation. 0 disables SLO tracking.
	M2PSLO time.Duration
}

// Tenant is one guest's streaming QoS telemetry. It implements the
// emulator frame-observer hook (FramePresented/FrameDropped/
// MotionToPhoton) and the svm fetch-observer hook (DemandFetch) without
// importing either package; wire it into the guest before the run starts.
// All state is virtual-time derived, so every report field is
// deterministic. A Tenant must only be fed from its own guest's
// environment; the Fleet reads it after the run.
type Tenant struct {
	cfg   TenantConfig
	index int
	track obs.Track

	frames uint64
	drops  uint64
	// perSec[i] counts frames presented in virtual second i; m2pViolSec[i]
	// counts SLO-violating motion-to-photon samples in that second. Grown
	// lazily — the only allocations on the enabled path, one per elapsed
	// virtual second.
	perSec     []uint32
	m2pViolSec []uint32

	m2p     LogHistogram
	m2pViol uint64
	fetch   LogHistogram
}

func newTenant(cfg TenantConfig, index int) *Tenant {
	return &Tenant{cfg: cfg, index: index}
}

// grow extends s so index i exists.
func grow(s []uint32, i int) []uint32 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

func secOf(at time.Duration) int { return int(at / time.Second) }

// FramePresented records a frame reaching the display at virtual instant
// at (the emulator FrameObserver hook).
func (t *Tenant) FramePresented(at time.Duration) {
	t.frames++
	i := secOf(at)
	t.perSec = grow(t.perSec, i)
	t.perSec[i]++
}

// FrameDropped records a frame discarded stale or past deadline.
func (t *Tenant) FrameDropped(at time.Duration) { t.drops++ }

// MotionToPhoton records a measured source-to-display latency and checks
// it against the SLO.
func (t *Tenant) MotionToPhoton(at, latency time.Duration) {
	t.m2p.ObserveDuration(latency)
	if t.cfg.M2PSLO > 0 && latency > t.cfg.M2PSLO {
		t.m2pViol++
		i := secOf(at)
		t.m2pViolSec = grow(t.m2pViolSec, i)
		t.m2pViolSec[i]++
	}
}

// DemandFetch records one demand-fetch completion (the svm FetchObserver
// hook): latency is the reader-perceived fetch time.
func (t *Tenant) DemandFetch(at, latency time.Duration) {
	t.fetch.ObserveDuration(latency)
}

// wholeSeconds returns how many complete virtual seconds [0,end) holds.
func wholeSeconds(end time.Duration) int { return int(end / time.Second) }

// floorViolationSeconds lists the complete seconds whose presented-frame
// count fell below the FPS floor, in ascending order. A tenant with no
// frames at all violates every second — an empty tenant is a dead tenant,
// not a compliant one.
func (t *Tenant) floorViolationSeconds(end time.Duration) []int {
	if t.cfg.FPSFloor <= 0 {
		return nil
	}
	n := wholeSeconds(end)
	var out []int
	for i := 0; i < n; i++ {
		var got uint32
		if i < len(t.perSec) {
			got = t.perSec[i]
		}
		if float64(got) < t.cfg.FPSFloor {
			out = append(out, i)
		}
	}
	return out
}

// emitSpans writes the tenant's violation spans to the trace: contiguous
// runs of floor-violating seconds and seconds with SLO violations, all with
// explicit virtual timestamps so emission order never shapes the trace
// clock.
func (t *Tenant) emitSpans(tr *obs.Tracer, end time.Duration) {
	emitRuns := func(name string, secs []int) {
		for i := 0; i < len(secs); {
			j := i
			for j+1 < len(secs) && secs[j+1] == secs[j]+1 {
				j++
			}
			start := time.Duration(secs[i]) * time.Second
			tr.SpanAt(t.track, name, start, time.Duration(j-i+1)*time.Second)
			i = j + 1
		}
	}
	emitRuns("fps-floor-violation", t.floorViolationSeconds(end))
	if t.cfg.M2PSLO > 0 {
		var secs []int
		for i, c := range t.m2pViolSec {
			if c > 0 {
				secs = append(secs, i)
			}
		}
		emitRuns("m2p-slo-violation", secs)
	}
}
