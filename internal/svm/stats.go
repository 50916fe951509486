package svm

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/metrics"
)

// Stats accumulates everything the paper's microbenchmarks report (§5.2):
// access latency, coherence time cost, bytes for throughput, prediction
// accuracy, and waste/overhead accounting.
type Stats struct {
	// AccessLatency is the blocking duration of every BeginAccess call,
	// in milliseconds (Fig. 16's render-thread blocking).
	AccessLatency metrics.Distribution
	// HALAccessLatency covers only CPU-side shared-memory API calls — the
	// AHardwareBuffer instrumentation of §2.3 and Table 2 row 1.
	HALAccessLatency metrics.Distribution
	// CoherenceCost is the duration of each coherence maintenance copy,
	// in milliseconds (Table 2 row 2, Fig. 5).
	CoherenceCost metrics.Distribution
	// SlackIntervals are the observed cross-device slack intervals in
	// milliseconds (Fig. 6).
	SlackIntervals metrics.Distribution
	// RegionSizes records each allocated region's size in MiB at first
	// access (Fig. 4).
	RegionSizes metrics.Distribution

	// BytesAccessed is the useful data volume (throughput numerator,
	// excluding waste).
	BytesAccessed hostsim.Bytes
	// BytesCoherence counts bytes moved by coherence maintenance.
	BytesCoherence hostsim.Bytes
	// BytesWasted counts prefetch/broadcast bytes never consumed.
	BytesWasted hostsim.Bytes

	// Device-prediction accuracy (§5.2: 99-100%).
	PredTotal   int
	PredCorrect int

	// SlackError / PrefetchTimeError are |predicted-actual| in
	// milliseconds (§5.2: std errors 0.9 ms and 0.3 ms).
	SlackError        metrics.Distribution
	PrefetchTimeError metrics.Distribution

	// CoherenceBatches counts the asynchronous coherence pushes started.
	// Each push is one transport transaction; the field keeps its name
	// because the benchmark module reads it into its run digest.
	CoherenceBatches int

	// Chunked demand fetches (DESIGN.md §11). Zero with chunking off.
	ChunkedFetches int // demand fetches driven as chunked DMA transfers
	FetchJoins     int // readers that joined an already-running chunked fetch

	// Coherence path outcomes.
	PrefetchHits    int // data was already in place at begin_access
	PrefetchWaits   int // begin_access waited for an in-flight prefetch
	DemandFetches   int // begin_access had to fetch synchronously
	GuestCoherence  int // guest-bounce coherence copies (modular baseline)
	DirectCoherence int // host-direct coherence copies (vSoC path)

	Accesses int
	Writes   int
	Reads    int
}

// PredictionAccuracy returns the device-prediction hit rate in [0,1].
func (s *Stats) PredictionAccuracy() float64 {
	if s.PredTotal == 0 {
		return 0
	}
	return float64(s.PredCorrect) / float64(s.PredTotal)
}

// Throughput returns useful bytes per second over the given span.
func (s *Stats) Throughput(span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(s.BytesAccessed) / span.Seconds()
}

// WasteFraction returns wasted bytes over all coherence bytes.
func (s *Stats) WasteFraction() float64 {
	total := s.BytesCoherence
	if total == 0 {
		return 0
	}
	return float64(s.BytesWasted) / float64(total)
}

// DirectShare returns the fraction of coherence copies done host-direct
// (§5.2 reports 98% for vSoC).
func (s *Stats) DirectShare() float64 {
	total := s.DirectCoherence + s.GuestCoherence
	if total == 0 {
		return 0
	}
	return float64(s.DirectCoherence) / float64(total)
}
