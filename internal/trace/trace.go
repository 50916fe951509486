// Package trace implements the instrumentation methodology of the paper's
// measurement study (§2.3): it records every shared-memory API call with
// its caller identity, size, usage, and duration, and answers the questions
// the study asks of the data — which services dominate SVM usage, how many
// processes share each region, and how cyclic the R/W patterns are.
//
// Recording is deterministic: events append in simulation order with no
// wall-clock input, so equal seeds produce identical traces and identical
// study answers.
package trace

import (
	"sort"
	"time"
)

// Event is one recorded shared-memory access.
type Event struct {
	At       time.Duration
	Caller   string // process/thread name (§2.3 footnote 2)
	Region   uint64
	Bytes    int64
	Write    bool
	Duration time.Duration
}

// Collector accumulates events. It is not safe for concurrent use; in the
// simulation exactly one access executes at a time.
type Collector struct {
	events    []Event
	byOwner   map[string]int64 // caller -> bytes accessed
	regions   map[uint64]*regionStats
	total     int64
	maxRegion uint64
}

type regionStats struct {
	callers map[string]bool
	// pattern tracking: last op kind per region, and counts of
	// alternating (W then R by another party) transitions vs total.
	lastWrite   bool
	lastCaller  string
	transitions int
	cyclic      int
	ops         int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		byOwner: make(map[string]int64),
		regions: make(map[uint64]*regionStats),
	}
}

// Record adds one access event.
func (c *Collector) Record(ev Event) {
	c.events = append(c.events, ev)
	if ev.Region > c.maxRegion {
		c.maxRegion = ev.Region
	}
	c.byOwner[ev.Caller] += ev.Bytes
	c.total += ev.Bytes

	rs := c.regions[ev.Region]
	if rs == nil {
		rs = &regionStats{callers: make(map[string]bool)}
		c.regions[ev.Region] = rs
	}
	rs.callers[ev.Caller] = true
	if rs.ops > 0 {
		rs.transitions++
		// A cyclic pipeline step: a write followed by a read from a
		// different party, or a read followed by the next write.
		if rs.lastWrite && !ev.Write && ev.Caller != rs.lastCaller {
			rs.cyclic++
		}
		if !rs.lastWrite && ev.Write {
			rs.cyclic++
		}
	}
	rs.lastWrite = ev.Write
	rs.lastCaller = ev.Caller
	rs.ops++
}

// Merge folds other's events into c (used to combine per-app traces into
// one §2.3-style study). Region IDs are namespaced so regions from
// different emulator instances never collide.
func (c *Collector) Merge(other *Collector) {
	offset := c.maxRegion + 1
	for _, ev := range other.events {
		ev.Region += offset
		c.Record(ev)
	}
}

// Events returns the recorded event count.
func (c *Collector) Events() int { return len(c.events) }

// CallRate returns API calls per second over the given span.
func (c *Collector) CallRate(span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(len(c.events)) / span.Seconds()
}

// UsageShare is one caller's share of SVM traffic.
type UsageShare struct {
	Caller string
	Bytes  int64
	Share  float64
}

// TopUsers returns callers ranked by bytes accessed — the §2.3 observation
// that media service, SurfaceFlinger, and camera service dominate.
func (c *Collector) TopUsers(n int) []UsageShare {
	out := make([]UsageShare, 0, len(c.byOwner))
	for caller, bytes := range c.byOwner {
		share := 0.0
		if c.total > 0 {
			share = float64(bytes) / float64(c.total)
		}
		out = append(out, UsageShare{Caller: caller, Bytes: bytes, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Caller < out[j].Caller
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// FewSharerFraction returns the fraction of regions serving at most two
// callers (§2.3: 99%).
func (c *Collector) FewSharerFraction() float64 {
	if len(c.regions) == 0 {
		return 0
	}
	few := 0
	for _, rs := range c.regions {
		if len(rs.callers) <= 2 {
			few++
		}
	}
	return float64(few) / float64(len(c.regions))
}

// CyclicFraction returns the share of cross-access transitions that follow
// the write-read-write pipeline cycle (§2.3: 96%).
func (c *Collector) CyclicFraction() float64 {
	var cyc, total int
	for _, rs := range c.regions {
		cyc += rs.cyclic
		total += rs.transitions
	}
	if total == 0 {
		return 0
	}
	return float64(cyc) / float64(total)
}
