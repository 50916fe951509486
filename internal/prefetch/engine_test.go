package prefetch

import (
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
)

const ms = time.Millisecond

// paths supplies the domains that transfer paths run between: PCIe is
// DRAM->VRAM, the camera path CamBuf->DRAM.
var paths = hostsim.NewMachine(nil, "paths")

// ids
const (
	pCam hypergraph.NodeID = iota
	pISP
	pGPU
	vCam hypergraph.NodeID = 100
	vISP hypergraph.NodeID = 101
	vGPU hypergraph.NodeID = 102
)

func newTwin() *hypergraph.Twin {
	tw := hypergraph.NewTwin()
	tw.Physical.AddNode(pCam, "cam")
	tw.Physical.AddNode(pISP, "isp")
	tw.Physical.AddNode(pGPU, "gpu")
	tw.Virtual.AddNode(vCam, "vcam")
	tw.Virtual.AddNode(vISP, "visp")
	tw.Virtual.AddNode(vGPU, "vgpu")
	return tw
}

func TestPredictFromMappedFlow(t *testing.T) {
	tw := newTwin()
	e := New(tw)
	ve := tw.Virtual.Edge([]hypergraph.NodeID{vCam}, []hypergraph.NodeID{vGPU})
	pe := tw.Physical.Edge([]hypergraph.NodeID{pCam}, []hypergraph.NodeID{pGPU})
	tw.Map(1, hypergraph.Mapping{Virtual: ve, Physical: pe})

	pred, ok := e.Predict(1, pCam, 0, nil)
	if !ok {
		t.Fatal("expected a prediction")
	}
	if len(pred.Readers) != 1 || pred.Readers[0] != pGPU {
		t.Fatalf("Readers = %v, want [gpu]", pred.Readers)
	}
	if pred.ZeroShot {
		t.Fatal("mapped region should not be zero-shot")
	}
	if pred.HaveTiming {
		t.Fatal("no series observed: timing should be unavailable")
	}
}

func TestPredictZeroShotFromHottestFlow(t *testing.T) {
	tw := newTwin()
	e := New(tw)
	pe := tw.Physical.Edge([]hypergraph.NodeID{pCam}, []hypergraph.NodeID{pISP, pGPU})
	pe.Touch(5 * ms)

	// Region 99 was never mapped: zero-shot prediction via the writer's
	// hottest flow.
	pred, ok := e.Predict(99, pCam, 10*ms, nil)
	if !ok {
		t.Fatal("expected zero-shot prediction")
	}
	if !pred.ZeroShot {
		t.Fatal("should be zero-shot")
	}
	if len(pred.Readers) != 2 {
		t.Fatalf("Readers = %v, want both isp and gpu", pred.Readers)
	}
}

func TestPredictNoHistory(t *testing.T) {
	e := New(newTwin())
	if _, ok := e.Predict(1, pCam, 0, nil); ok {
		t.Fatal("no flows at all: prediction must fail")
	}
}

func TestCompensationWhenSlackTooShort(t *testing.T) {
	// The Fig. 8 scenario: prefetch 10ms, slack 8ms => compensate 2ms.
	tw := newTwin()
	e := New(tw)
	ve := tw.Virtual.Edge([]hypergraph.NodeID{vCam}, []hypergraph.NodeID{vGPU})
	pe := tw.Physical.Edge([]hypergraph.NodeID{pCam}, []hypergraph.NodeID{pGPU})
	tw.Map(1, hypergraph.Mapping{Virtual: ve, Physical: pe})
	ve.Observe(hypergraph.StatSlackMS, 8)
	// 10 MiB at 1 GiB/s => ~10 ms prefetch.
	wantPf := time.Duration(float64(10*(1<<20)) / float64(1<<30) * float64(time.Second))
	pe.Observe(hypergraph.StatPrefetchMS, float64(wantPf)/float64(ms))

	pred, ok := e.Predict(1, pCam, 0, nil)
	if !ok || !pred.HaveTiming {
		t.Fatalf("want timed prediction, got ok=%v have=%v", ok, pred.HaveTiming)
	}
	if pred.PrefetchTime != wantPf {
		t.Fatalf("PrefetchTime = %v, want %v", pred.PrefetchTime, wantPf)
	}
	if pred.Slack != 8*ms {
		t.Fatalf("Slack = %v, want 8ms", pred.Slack)
	}
	wantComp := wantPf - 8*ms
	if pred.Compensation != wantComp {
		t.Fatalf("Compensation = %v, want %v", pred.Compensation, wantComp)
	}
}

func TestNoCompensationWhenSlackCovers(t *testing.T) {
	tw := newTwin()
	e := New(tw)
	ve := tw.Virtual.Edge([]hypergraph.NodeID{vCam}, []hypergraph.NodeID{vGPU})
	pe := tw.Physical.Edge([]hypergraph.NodeID{pCam}, []hypergraph.NodeID{pGPU})
	tw.Map(1, hypergraph.Mapping{Virtual: ve, Physical: pe})
	ve.Observe(hypergraph.StatSlackMS, 20)
	// 1 MiB at 10 GiB/s: very fast copies.
	pe.Observe(hypergraph.StatPrefetchMS, float64(1<<20)/float64(10<<30)*1e3)

	pred, _ := e.Predict(1, pCam, 0, nil)
	if pred.Compensation != 0 {
		t.Fatalf("Compensation = %v, want 0", pred.Compensation)
	}
}

func TestPrefetchTimeFallbackToDurationSeries(t *testing.T) {
	tw := newTwin()
	e := New(tw)
	ve := tw.Virtual.Edge([]hypergraph.NodeID{vCam}, []hypergraph.NodeID{vGPU})
	pe := tw.Physical.Edge([]hypergraph.NodeID{pCam}, []hypergraph.NodeID{pGPU})
	tw.Map(1, hypergraph.Mapping{Virtual: ve, Physical: pe})
	ve.Observe(hypergraph.StatSlackMS, 5)
	pe.Observe(hypergraph.StatPrefetchMS, 7)

	pred, _ := e.Predict(1, pCam, 0, nil)
	if !pred.HaveTiming {
		t.Fatal("want timing from the prefetch_ms series")
	}
	if pred.PrefetchTime != 7*ms {
		t.Fatalf("PrefetchTime = %v, want 7ms", pred.PrefetchTime)
	}
	if pred.Compensation != 2*ms {
		t.Fatalf("Compensation = %v, want 2ms", pred.Compensation)
	}
}

func TestSuspendAfterThreeConsecutiveFailures(t *testing.T) {
	e := New(newTwin())
	now := 10 * ms
	e.RecordOutcome(false, now)
	e.RecordOutcome(false, now)
	if e.Suspended(now) {
		t.Fatal("should not suspend before the third failure")
	}
	e.RecordOutcome(false, now)
	if !e.Suspended(now) {
		t.Fatal("three consecutive failures must suspend")
	}
	if e.Suspensions() != 1 {
		t.Fatalf("Suspensions = %d, want 1", e.Suspensions())
	}
	// Suspension expires.
	if e.Suspended(now + suspendFor + ms) {
		t.Fatal("suspension should expire")
	}
}

func TestSuccessResetsFailureStreak(t *testing.T) {
	e := New(newTwin())
	e.RecordOutcome(false, 0)
	e.RecordOutcome(false, 0)
	e.RecordOutcome(true, 0)
	e.RecordOutcome(false, 0)
	e.RecordOutcome(false, 0)
	if e.Suspended(0) {
		t.Fatal("non-consecutive failures must not suspend")
	}
}

func TestBandwidthFloorSuspends(t *testing.T) {
	e := New(newTwin())
	a, b := paths.DRAM, paths.VRAM
	e.ObserveBandwidth(a, b, 10e9, 0)
	if e.Suspended(0) {
		t.Fatal("first observation should not suspend")
	}
	e.ObserveBandwidth(a, b, 6e9, 1*ms)
	if e.Suspended(1 * ms) {
		t.Fatal("60% of max should not suspend")
	}
	e.ObserveBandwidth(a, b, 4e9, 2*ms)
	if !e.Suspended(2 * ms) {
		t.Fatal("below 50% of max must suspend")
	}
}

func TestBandwidthFloorIsPerPath(t *testing.T) {
	// A slow-by-nature path must not read as congestion against a fast
	// one: 2 GB/s steady on the camera path stays fine even though PCIe
	// observed 11 GB/s.
	e := New(newTwin())
	e.ObserveBandwidth(paths.DRAM, paths.VRAM, 11e9, 0)
	e.ObserveBandwidth(paths.CamBuf, paths.DRAM, 2e9, 1*ms)
	e.ObserveBandwidth(paths.CamBuf, paths.DRAM, 2e9, 2*ms)
	if e.Suspended(2 * ms) {
		t.Fatal("steady slow path suspended against unrelated fast path")
	}
	if e.maxBandwidth[paths.CamBuf.ID][paths.DRAM.ID] != 2e9 {
		t.Fatal("per-path max wrong")
	}
	// Real congestion on the fast path still suspends.
	e.ObserveBandwidth(paths.DRAM, paths.VRAM, 3e9, 3*ms)
	if !e.Suspended(3 * ms) {
		t.Fatal("real congestion on the same path must suspend")
	}
}

func TestPredictAfterRemapFollowsNewFlow(t *testing.T) {
	tw := newTwin()
	e := New(tw)
	pe1 := tw.Physical.Edge([]hypergraph.NodeID{pCam}, []hypergraph.NodeID{pISP})
	pe2 := tw.Physical.Edge([]hypergraph.NodeID{pCam}, []hypergraph.NodeID{pGPU})
	tw.Map(1, hypergraph.Mapping{Physical: pe1})
	pred, _ := e.Predict(1, pCam, 0, nil)
	if pred.Readers[0] != pISP {
		t.Fatalf("Readers = %v, want isp", pred.Readers)
	}
	tw.Map(1, hypergraph.Mapping{Physical: pe2})
	pred, _ = e.Predict(1, pCam, 0, nil)
	if pred.Readers[0] != pGPU {
		t.Fatalf("Readers = %v, want gpu after remap", pred.Readers)
	}
}

func TestPredictFiltersWriterFromReaders(t *testing.T) {
	// Two virtual devices can share one physical node (vSoC's in-GPU ISP
	// feeding the GPU), so flow edges legitimately contain the writer's
	// own physical node — but it must never be *predicted*: it already
	// holds the data, and crediting a self-prediction inflates accuracy.
	tw := newTwin()
	e := New(tw)
	pe := tw.Physical.Edge([]hypergraph.NodeID{pGPU}, []hypergraph.NodeID{pGPU, pISP})
	tw.Map(1, hypergraph.Mapping{Physical: pe})

	pred, ok := e.Predict(1, pGPU, 0, nil)
	if !ok {
		t.Fatal("expected a prediction")
	}
	if len(pred.Readers) != 1 || pred.Readers[0] != pISP {
		t.Fatalf("Readers = %v, want [isp] (writer filtered out)", pred.Readers)
	}
}

func TestPredictSameNodeOnlyFlowHasNoPrediction(t *testing.T) {
	// A flow whose only destination is the writer itself predicts
	// nothing: there is nowhere to prefetch to.
	tw := newTwin()
	e := New(tw)
	pe := tw.Physical.Edge([]hypergraph.NodeID{pGPU}, []hypergraph.NodeID{pGPU})
	tw.Map(1, hypergraph.Mapping{Physical: pe})

	if _, ok := e.Predict(1, pGPU, 0, nil); ok {
		t.Fatal("self-only flow must not produce a prediction")
	}
}

func TestSeedPathMaxCatchesCongestedFromStart(t *testing.T) {
	// Without a seed, the first sample on a path becomes its max, so a
	// path congested from its very first observation can never trip the
	// floor. Seeding from the link's nominal bandwidth closes the gap.
	unseeded := New(newTwin())
	unseeded.ObserveBandwidth(paths.DRAM, paths.VRAM, 4e9, 0) // actually 40% of an 11 GB/s link
	if unseeded.Suspended(0) {
		t.Fatal("unseeded engine cannot know the path is congested")
	}

	seeded := New(newTwin())
	seeded.SeedPathMax(paths.DRAM, paths.VRAM, 11e9)
	if seeded.Suspended(0) {
		t.Fatal("seeding alone must not suspend")
	}
	seeded.ObserveBandwidth(paths.DRAM, paths.VRAM, 4e9, 0)
	if !seeded.Suspended(0) {
		t.Fatal("congested-from-start path must suspend once seeded")
	}
	if seeded.Suspensions() != 1 {
		t.Fatalf("Suspensions = %d, want 1", seeded.Suspensions())
	}
}

func TestSeedPathMaxKeepsHigherObservedMax(t *testing.T) {
	e := New(newTwin())
	e.ObserveBandwidth(paths.DRAM, paths.VRAM, 12e9, 0) // measured above nominal
	e.SeedPathMax(paths.DRAM, paths.VRAM, 11e9)
	if got := e.maxBandwidth[paths.DRAM.ID][paths.VRAM.ID]; got != 12e9 {
		t.Fatalf("maxBandwidth = %v, want the higher observed 12e9", got)
	}
}
