package virtio

import (
	"time"

	"repro/internal/metrics"
)

// This file is the adaptive notification-batching layer of the transport:
// the doorbell-suppression state machine (event-index semantics on command
// rings and interrupt lines) and the adaptive coalescing window that the
// coherence push path sizes from observed notify->IRQ round trips.
//
// The paper's cost breakdown (§2.3, Table 2) shows coherence cost is
// dominated by copies plus per-notification control costs — a VM-exit per
// guest kick, a VM-entry/exit pair per host IRQ. Batching amortizes those
// fixed costs across coalesced transactions; suppression elides them
// entirely while the peer is already awake. Everything here is gated on
// BatchConfig.Enabled: the zero value disables the layer and the transport
// behaves — byte for byte — as if this file did not exist.

// BatchConfig tunes the notification-batching layer of one transport. The
// zero value disables batching entirely.
type BatchConfig struct {
	// Enabled turns on doorbell suppression, IRQ coalescing, and coherence
	// push batching. Off, the transport is byte-identical to the unbatched
	// implementation.
	Enabled bool
	// MaxWindow caps the adaptive coalescing window. Zero means the
	// DefaultMaxWindow when batching is enabled.
	MaxWindow time.Duration
	// MaxBatch flushes a batch when it accumulates this many elements
	// (<=0 means DefaultMaxBatch).
	MaxBatch int
	// PressureHold is how long a demand fetch pins the window at zero
	// (latency-sensitive readers are waiting; coalescing delay would land
	// directly on the Fig. 16 tail). <=0 means DefaultPressureHold.
	PressureHold time.Duration
}

// Defaults for the batching tunables, applied field-wise when a field is
// left zero on an enabled config.
const (
	DefaultMaxWindow    = 2 * time.Millisecond
	DefaultMaxBatch     = 64
	DefaultPressureHold = 5 * time.Millisecond
)

// windowGain is the fraction of the observed round-trip EWMA used as the
// coalescing window. The rationale: delaying a push by less than the
// notification round trip it saves is always amortized.
const windowGain = 1.0

// EnabledBatch returns an enabled config with all defaults.
func EnabledBatch() BatchConfig { return BatchConfig{Enabled: true} }

// Resolved returns the config with defaults filled into zero fields, for
// layers outside this package that need the effective tunables.
func (c BatchConfig) Resolved() BatchConfig {
	c.MaxWindow = c.maxWindow()
	c.MaxBatch = c.maxBatch()
	c.PressureHold = c.pressureHold()
	return c
}

func (c BatchConfig) maxWindow() time.Duration {
	if c.MaxWindow > 0 {
		return c.MaxWindow
	}
	return DefaultMaxWindow
}

func (c BatchConfig) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return DefaultMaxBatch
}

func (c BatchConfig) pressureHold() time.Duration {
	if c.PressureHold > 0 {
		return c.PressureHold
	}
	return DefaultPressureHold
}

// AdaptiveWindow sizes one coalescing window (the svm push coalescer keeps
// one per destination domain) from the notify->IRQ round trips observed on
// it (single exponential smoothing, the same metrics.EWMA machinery the
// prefetch engine forecasts with).
//
// The policy, in order of precedence:
//
//  1. Cold (no round trip observed yet): window 0. The first element
//     dispatches immediately — batching never adds latency before it has
//     evidence that there is a round-trip cost worth amortizing.
//  2. Under pressure (a latency-sensitive demand fetch within
//     PressureHold): window 0. Tail latency beats notification savings.
//  3. Otherwise: windowGain x the round-trip EWMA, capped at MaxWindow.
type AdaptiveWindow struct {
	cfg           BatchConfig
	rtt           *metrics.EWMA
	pressureUntil time.Duration
}

// NewAdaptiveWindow returns a cold window under cfg's policy.
func NewAdaptiveWindow(cfg BatchConfig) *AdaptiveWindow {
	return &AdaptiveWindow{cfg: cfg, rtt: metrics.NewEWMA(metrics.DefaultAlpha)}
}

// ObserveRTT folds one notify->IRQ round trip into the forecast.
func (w *AdaptiveWindow) ObserveRTT(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.rtt.Observe(float64(d))
}

// Pressure records a latency-sensitive event at now, pinning the window at
// zero until now+PressureHold.
func (w *AdaptiveWindow) Pressure(now time.Duration) {
	if until := now + w.cfg.pressureHold(); until > w.pressureUntil {
		w.pressureUntil = until
	}
}

// UnderPressure reports whether the window is currently pinned at zero by a
// recent latency-sensitive event.
func (w *AdaptiveWindow) UnderPressure(now time.Duration) bool {
	return now < w.pressureUntil
}

// Window returns the coalescing window to use for a batch opened at now.
func (w *AdaptiveWindow) Window(now time.Duration) time.Duration {
	if !w.rtt.Warm() || w.UnderPressure(now) {
		return 0
	}
	win := time.Duration(windowGain * w.rtt.Value())
	if max := w.cfg.maxWindow(); win > max {
		win = max
	}
	if win < 0 {
		win = 0
	}
	return win
}
