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
// suspended to avoid wasting bandwidth. The paper fixes these values, so
// they are constants, not configuration.
//
// The engine is deterministic: predictions depend only on virtual-time
// history fed in by the SVM manager, so equal seeds prefetch the same
// regions to the same domains at the same instants.
package prefetch

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// The §3.3 suspension rule.
const (
	// failureLimit is the consecutive-misprediction count that triggers
	// suspension.
	failureLimit = 3
	// bandwidthFloor is the fraction of a path's maximum observed bandwidth
	// below which prefetch suspends.
	bandwidthFloor = 0.5
	// suspendFor is how long a suspension lasts.
	suspendFor = 50 * time.Millisecond
)

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
	twin *hypergraph.Twin

	consecutiveFailures int
	suspendedUntil      time.Duration
	suspensions         int
	mispredictions      int
	// maxBandwidth is the maximum observed per transfer path, indexed by
	// the path's [from.ID][to.ID] domain pair.
	maxBandwidth [hostsim.MaxDomains][hostsim.MaxDomains]float64

	tr *obs.Tracer
	tk obs.Track
}

// New returns an engine reading flow state from twin.
func New(twin *hypergraph.Twin) *Engine {
	return &Engine{twin: twin}
}

// SetObs attaches the observability layer (either argument may be nil).
// The owning SVM manager calls this at construction; the engine does not
// hold a sim.Env, so the tracer arrives pre-bound to the virtual clock.
func (e *Engine) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	e.tr = tr
	if tr != nil {
		e.tk = tr.Track("prefetch")
	}
	if reg != nil {
		reg.Count("prefetch.suspensions", &e.suspensions)
		reg.Count("prefetch.mispredictions", &e.mispredictions)
	}
}

// Predict produces the prefetch decision for a write to the given region by
// the given physical writer at time now. ok is false when no prediction is
// possible (no mapped flow and no history for the writer).
// Prediction.Readers is built in readers' backing array (reused from
// length 0; nil allocates a fresh one), so a caller that keeps the buffer
// across calls predicts without allocating.
func (e *Engine) Predict(region uint64, writerPhys hypergraph.NodeID, now time.Duration, readers []hypergraph.NodeID) (Prediction, bool) {
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

	pf, okPf := e.forecastPrefetchTime(pEdge)
	var slack time.Duration
	okSlack := false
	if vEdge != nil {
		if s, ok := vEdge.Forecast(hypergraph.StatSlackMS); ok {
			slack = time.Duration(s * float64(time.Millisecond))
			okSlack = true
		}
	}
	if !okSlack {
		if s, ok := pEdge.Forecast(hypergraph.StatSlackMS); ok {
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
// prefetch duration.
func (e *Engine) forecastPrefetchTime(pEdge *hypergraph.Edge) (time.Duration, bool) {
	if ms, ok := pEdge.Forecast(hypergraph.StatPrefetchMS); ok {
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
	e.mispredictions++
	e.consecutiveFailures++
	if e.consecutiveFailures >= failureLimit {
		e.suspend(now)
		e.consecutiveFailures = 0
	}
}

// ObserveBandwidth feeds an achieved copy bandwidth (bytes/sec) for the
// transfer path from one domain to another; prefetch suspends when the
// bandwidth available to an operation falls below bandwidthFloor of the
// maximum observed on the same path (§3.3: "the available bandwidth
// corresponding to the operation"). Comparing per path keeps slow-by-nature
// routes (a USB camera link) from reading as congestion on fast ones
// (PCIe).
func (e *Engine) ObserveBandwidth(from, to *hostsim.Domain, bps float64, now time.Duration) {
	peak := &e.maxBandwidth[from.ID][to.ID]
	if bps > *peak {
		*peak = bps
	}
	if *peak > 0 && bps < bandwidthFloor**peak {
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
func (e *Engine) SeedPathMax(from, to *hostsim.Domain, bps float64) {
	if peak := &e.maxBandwidth[from.ID][to.ID]; bps > *peak {
		*peak = bps
	}
}

func (e *Engine) suspend(now time.Duration) {
	until := now + suspendFor
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
	}
}

// Suspended reports whether prefetching is currently suspended.
func (e *Engine) Suspended(now time.Duration) bool { return now < e.suspendedUntil }

// Suspensions returns how many times the engine suspended.
func (e *Engine) Suspensions() int { return e.suspensions }
