package metrics

// EWMA is single exponential smoothing (Gardner 1985), the forecasting
// algorithm the paper selects for slack-interval and bandwidth prediction
// (§3.3): the forecast is a weighted average of past observations with
// exponentially decaying weights controlled by alpha. The paper picks
// alpha = 0.5 empirically.
type EWMA struct {
	alpha float64
	value float64
	n     int64
}

// DefaultAlpha is the paper's empirically chosen smoothing constant.
const DefaultAlpha = 0.5

// NewEWMA returns a smoother with the given alpha in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one observation into the forecast. The first observation
// initializes the forecast directly.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.value = x
	} else {
		e.value = e.alpha*x + (1-e.alpha)*e.value
	}
	e.n++
}

// Value returns the current forecast (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Warm reports whether at least one observation has been folded in.
func (e *EWMA) Warm() bool { return e.n > 0 }
