// Package prefetch implements vSoC's prefetch engine (§3.3): the prediction
// machinery that decides, at each SVM write, where the data will be read
// next, how long the copy will take, and how long the slack interval before
// the next access will be — then derives the synchronism compensation that
// keeps coherence maintenance hidden under the slack.
//
// Predictions come from the twin hypergraphs (§3.2): device prediction uses
// the physical flow edge mapped to the region (falling back to the hottest
// flow sourced at the writer for zero-shot prediction on fresh regions), and
// the scalar quantities use single exponential smoothing with alpha = 0.5.
//
// The engine also carries the paper's two robustness corner cases: after
// three consecutive prediction failures, or whenever the available bandwidth
// drops below 50% of the maximum observed, prefetching is temporarily
// suspended to avoid wasting bandwidth.
//
// The engine is deterministic: predictions depend only on virtual-time
// history fed in by the SVM manager, so equal seeds prefetch the same
// regions to the same domains at the same instants.
package prefetch

import (
	"time"

	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// Stat names recorded on hypergraph edges.
const (
	StatSlackMS      = "slack_ms"      // virtual layer: cross-device slack intervals
	StatSizeBytes    = "size_bytes"    // physical layer: dirty-region sizes
	StatBandwidthBps = "bandwidth_bps" // physical layer: achieved copy bandwidth
	StatPrefetchMS   = "prefetch_ms"   // physical layer: achieved prefetch durations
)

// Config holds the engine's tunables, defaulting to the paper's values.
type Config struct {
	// FailureLimit is the consecutive-misprediction count that triggers
	// suspension (3 in the paper).
	FailureLimit int
	// BandwidthFloor is the fraction of the maximum observed bandwidth
	// below which prefetch suspends (0.5 in the paper).
	BandwidthFloor float64
	// SuspendFor is how long a suspension lasts.
	SuspendFor time.Duration
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		FailureLimit:   3,
		BandwidthFloor: 0.5,
		SuspendFor:     50 * time.Millisecond,
	}
}

// Prediction is the engine's output for one write: where to prefetch and the
// timing forecast used for adaptive synchronism.
type Prediction struct {
	// Readers is the predicted physical destination device set.
	Readers []hypergraph.NodeID
	// ZeroShot reports that the region had no mapped flow and the
	// prediction came from the writer's hottest flow.
	ZeroShot bool
	// PrefetchTime is the forecast copy duration (valid when HaveTiming).
	PrefetchTime time.Duration
	// Slack is the forecast slack interval before the next access.
	Slack time.Duration
	// HaveTiming reports whether both timing forecasts were available.
	HaveTiming bool
	// Compensation is how long the guest driver should block after the
	// write so that the remaining prefetch hides under the slack
	// (max(0, PrefetchTime-Slack); zero when timing is unknown).
	Compensation time.Duration
}

// Engine is one prefetch engine instance, owned by an SVM manager.
type Engine struct {
	cfg  Config
	twin *hypergraph.Twin

	consecutiveFailures int
	suspendedUntil      time.Duration
	suspensions         int
	maxBandwidth        map[string]float64 // per transfer path

	tr      *obs.Tracer
	tk      obs.Track
	suspCtr *obs.Counter
	missCtr *obs.Counter
}

// New returns an engine reading flow state from twin.
func New(twin *hypergraph.Twin, cfg Config) *Engine {
	if cfg.FailureLimit <= 0 {
		cfg.FailureLimit = 3
	}
	if cfg.BandwidthFloor <= 0 {
		cfg.BandwidthFloor = 0.5
	}
	return &Engine{cfg: cfg, twin: twin, maxBandwidth: make(map[string]float64)}
}

// SetObs attaches the observability layer (either argument may be nil).
// The owning SVM manager calls this at construction; the engine does not
// hold a sim.Env, so the tracer arrives pre-bound to the virtual clock.
func (e *Engine) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	e.tr = tr
	if tr != nil {
		e.tk = tr.Track("prefetch")
	}
	e.suspCtr = reg.Counter("prefetch.suspensions")
	e.missCtr = reg.Counter("prefetch.mispredictions")
}

// Predict produces the prefetch decision for a write of size bytes to the
// given region by the given physical writer at time now. ok is false when
// no prediction is possible (no mapped flow and no history for the writer).
// Prediction.Readers is built in readers' backing array (reused from
// length 0; nil allocates a fresh one), so a caller that keeps the buffer
// across calls predicts without allocating.
func (e *Engine) Predict(region uint64, writerPhys hypergraph.NodeID, size int64, now time.Duration, readers []hypergraph.NodeID) (Prediction, bool) {
	pred := Prediction{Readers: readers[:0]}
	var vEdge, pEdge *hypergraph.Edge
	if m, ok := e.twin.Lookup(region); ok && m.Physical != nil {
		vEdge, pEdge = m.Virtual, m.Physical
	} else if hot, ok := e.twin.Physical.HottestFrom(writerPhys); ok {
		// Zero-shot: a fresh region inherits the writer's hottest flow
		// (R/W history is recorded per data flow, not per region, §3.3).
		pEdge = hot
		pred.ZeroShot = true
		// No virtual edge is known for a fresh region; slack falls back
		// to the physical flow's series below.
	}
	if pEdge == nil {
		return Prediction{}, false
	}
	// The writer's own physical node is never a prefetch destination: it
	// already holds the data. Flow edges can legitimately contain it (two
	// virtual devices mapped to one physical node, e.g. an in-GPU ISP
	// feeding the GPU), but predicting it would both schedule a no-op push
	// and let accuracy scoring credit a self-prediction as correct.
	for _, dst := range pEdge.Dests {
		if dst == writerPhys {
			continue
		}
		pred.Readers = append(pred.Readers, dst)
	}
	if len(pred.Readers) == 0 {
		// Same-node flow only: nothing to prefetch, nothing to predict.
		return Prediction{}, false
	}

	pf, okPf := e.forecastPrefetchTime(pEdge, size)
	var slack time.Duration
	okSlack := false
	if vEdge != nil {
		if s, ok := vEdge.Forecast(StatSlackMS); ok {
			slack = time.Duration(s * float64(time.Millisecond))
			okSlack = true
		}
	}
	if !okSlack {
		if s, ok := pEdge.Forecast(StatSlackMS); ok {
			slack = time.Duration(s * float64(time.Millisecond))
			okSlack = true
		}
	}
	if okPf && okSlack {
		pred.HaveTiming = true
		pred.PrefetchTime = pf
		pred.Slack = slack
		if pf > slack {
			pred.Compensation = pf - slack
		}
	}
	return pred, true
}

// forecastPrefetchTime estimates the copy duration from the flow's smoothed
// bandwidth, falling back to its smoothed prefetch duration.
func (e *Engine) forecastPrefetchTime(pEdge *hypergraph.Edge, size int64) (time.Duration, bool) {
	if bps, ok := pEdge.Forecast(StatBandwidthBps); ok && bps > 0 {
		return time.Duration(float64(size) / bps * float64(time.Second)), true
	}
	if ms, ok := pEdge.Forecast(StatPrefetchMS); ok {
		return time.Duration(ms * float64(time.Millisecond)), true
	}
	return 0, false
}

// RecordOutcome reports whether the device prediction for an access was
// correct, driving the consecutive-failure suspension rule.
func (e *Engine) RecordOutcome(correct bool, now time.Duration) {
	if correct {
		e.consecutiveFailures = 0
		return
	}
	if e.tr != nil {
		e.tr.Instant(e.tk, "mispredict")
	}
	e.missCtr.Inc()
	e.consecutiveFailures++
	if e.consecutiveFailures >= e.cfg.FailureLimit {
		e.suspend(now)
		e.consecutiveFailures = 0
	}
}

// ObserveBandwidth feeds an achieved copy bandwidth (bytes/sec) for one
// transfer path; prefetch suspends when the bandwidth available to an
// operation falls below the configured fraction of the maximum observed on
// the same path (§3.3: "the available bandwidth corresponding to the
// operation"). Comparing per path keeps slow-by-nature routes (a USB camera
// link) from reading as congestion on fast ones (PCIe).
func (e *Engine) ObserveBandwidth(path string, bps float64, now time.Duration) {
	if bps > e.maxBandwidth[path] {
		e.maxBandwidth[path] = bps
	}
	if max := e.maxBandwidth[path]; max > 0 && bps < e.cfg.BandwidthFloor*max {
		if e.tr != nil {
			e.tr.Instant(e.tk, "bandwidth-floor")
		}
		e.suspend(now)
	}
}

// SeedPathMax pre-loads a path's maximum with its configured nominal
// bandwidth, so a path that is congested from its very first observation
// can still trip the floor. Without a seed the first sample *becomes* the
// max and a congested-from-start path never reads as degraded. The fault
// layer calls this with the link's nominal bandwidth when it arms a fault
// on the path; an existing higher max is kept.
func (e *Engine) SeedPathMax(path string, bps float64) {
	if bps > e.maxBandwidth[path] {
		e.maxBandwidth[path] = bps
	}
}

func (e *Engine) suspend(now time.Duration) {
	until := now + e.cfg.SuspendFor
	if until > e.suspendedUntil {
		if e.tr != nil {
			// The span covers the suspension; an extension of an active
			// one records only the added tail, so suspension spans on the
			// track stay contiguous rather than overlapping. Resumption is
			// the span's right edge.
			start := now
			if e.suspendedUntil > now {
				start = e.suspendedUntil
			}
			e.tr.SpanAt(e.tk, "suspended", start, until-start)
		}
		e.suspendedUntil = until
		e.suspensions++
		e.suspCtr.Inc()
	}
}

// Suspended reports whether prefetching is currently suspended.
func (e *Engine) Suspended(now time.Duration) bool { return now < e.suspendedUntil }

// Suspensions returns how many times the engine suspended.
func (e *Engine) Suspensions() int { return e.suspensions }
