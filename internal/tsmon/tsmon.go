// Package tsmon is the streaming virtual-time telemetry engine (DESIGN.md
// §15, the monitoring layer the fleet-scale operation of §6 presumes): a
// windowed time-series collector that folds the repro's existing
// observability signals — FPS, demand-fetch latency, motion-to-photon SLO
// attainment, link busy/scale, thermal state, fence timeouts — into fixed
// virtual-time windows with bounded memory, a registry of online detectors
// (SLO burn-rate, EWMA drift, threshold breach) evaluated as each window
// seals, and an incident flight recorder that snapshots the surrounding
// window series (plus an optional span-ring Perfetto snippet) whenever a
// detector fires.
//
// Determinism contract: every sealed window, detector decision, and
// incident report is a pure function of the simulation — virtual-time
// sample streams folded in fixed (window, tenant) order at seal points
// whose sequence depends only on the event stream. Equal seeds therefore
// produce byte-identical window series and incident reports at every
// worker count. The layer is observe-only: attaching it never
// schedules simulation events, so results are byte-identical with
// monitoring on or off; with it off (no Monitor constructed) the
// instrumented paths cost nothing.
package tsmon

import (
	"time"

	"repro/internal/fleetobs"
	"repro/internal/obs"
	"repro/internal/prof"
)

// TenantConfig declares one monitored guest and its QoS contract. It is
// the fleetobs declaration, so a driver builds one list for both layers.
// The monitor reads Name as the label in windows and incident reports,
// FPSFloor as the per-window frame-rate floor below which the default fps
// threshold detector fires, and M2PSLO as the bound above which
// motion-to-photon samples count as violations for the burn-rate detector;
// 0 disables either check.
type TenantConfig = fleetobs.TenantConfig

// Config sizes the monitor.
type Config struct {
	// Window is the virtual-time rollup window width. Default 200 ms.
	Window time.Duration
	// Ring bounds how many sealed windows are retained (older windows are
	// evicted; totals keep counting). Default 256.
	Ring int
	// Context is how many trailing windows of the triggering signal an
	// incident snapshots. Default 16 (clamped to Ring).
	Context int
	// Tenants declares the monitored guests, in index order.
	Tenants []TenantConfig
	// Detectors declares the online detectors; nil means DefaultSpecs().
	Detectors []Spec
	// Tracer, when set, is the flight-recorder span source: incidents
	// snapshot its current event ring for a Perfetto snippet. Use
	// obs.Tracer.SetLimit to keep it a bounded always-on ring.
	Tracer *obs.Tracer
	// Profiler, when set, lets incidents name the dominant critical-path
	// component at fire time.
	Profiler *prof.Profiler
}

// ProbeKind says how a registered probe's reading becomes a window value.
type ProbeKind int

const (
	// ProbeGauge records the probe's reading at seal time as-is.
	ProbeGauge ProbeKind = iota
	// ProbeDelta records the difference since the previous seal, so
	// cumulative counters (bytes moved, fence timeouts) become per-window
	// rates. The first window after registration reads the full value as
	// its baseline and records the delta from zero at registration time.
	ProbeDelta
)

// probe is one registered pull signal, sampled when windows seal.
type probe struct {
	name string
	kind ProbeKind
	fn   func() float64
	last float64
}

// accum is one tenant's open-window accumulation. The histograms make
// in-window percentiles merge-order independent; they are reset (not
// reallocated) as windows seal.
type accum struct {
	frames, drops     uint32
	m2pCount, m2pViol uint32
	m2p               fleetobs.LogHistogram
	fetchCount        uint32
	fetch             fleetobs.LogHistogram
}

// Tenant is one guest's feed into the monitor. It implements the emulator
// frame-observer hook (FramePresented/FrameDropped/MotionToPhoton) and the
// svm fetch-observer hook (DemandFetch) without importing either package.
// A Tenant must only be fed from its own guest's environment; the seal
// points (shard barriers, or the single-env window driver) establish the
// ordering that makes cross-tenant folding deterministic.
type Tenant struct {
	cfg    TenantConfig
	mon    *Monitor
	index  int
	probes []probe
	// open[i] accumulates window (mon.nextSeal + i): the windows at or
	// above the seal watermark that this tenant has already seen samples
	// for. Its length is bounded by how far the tenant's clock runs ahead
	// of the watermark (one lookahead window in farm mode).
	open []accum
}

// at returns the open accumulator for the window containing virtual
// instant `at`, growing the open slice as the tenant's clock runs ahead.
// Samples below the seal watermark (impossible under the barrier
// discipline, but cheap to guard) fold into the oldest open window.
func (t *Tenant) at(at time.Duration) *accum {
	idx := int(at / t.mon.window)
	off := idx - t.mon.nextSeal
	if off < 0 {
		off = 0
	}
	for len(t.open) <= off {
		t.open = append(t.open, accum{})
	}
	return &t.open[off]
}

// FramePresented records a frame reaching the display (the emulator
// FrameObserver hook).
func (t *Tenant) FramePresented(now time.Duration) { t.at(now).frames++ }

// FrameDropped records a frame discarded stale or past deadline.
func (t *Tenant) FrameDropped(now time.Duration) { t.at(now).drops++ }

// MotionToPhoton records a measured source-to-display latency and checks it
// against the tenant's SLO.
func (t *Tenant) MotionToPhoton(now, latency time.Duration) {
	a := t.at(now)
	a.m2pCount++
	a.m2p.ObserveDuration(latency)
	if t.cfg.M2PSLO > 0 && latency > t.cfg.M2PSLO {
		a.m2pViol++
	}
}

// DemandFetch records one demand-fetch completion (the svm FetchObserver
// hook).
func (t *Tenant) DemandFetch(now, latency time.Duration) {
	a := t.at(now)
	a.fetchCount++
	a.fetch.ObserveDuration(latency)
}

// Probe registers a named pull signal read every time a window seals:
// a closure over the tenant's own deterministic simulation state (link
// counters, thermal readings, device stats). Registration order is the
// window's probe column order; register everything before the run starts.
// The signal is addressable by detectors as "probe:<name>".
func (t *Tenant) Probe(name string, kind ProbeKind, fn func() float64) {
	t.probes = append(t.probes, probe{name: name, kind: kind, fn: fn})
}

// probeIndex resolves a probe name to its column, -1 when absent.
func (t *Tenant) probeIndex(name string) int {
	for i := range t.probes {
		if t.probes[i].name == name {
			return i
		}
	}
	return -1
}

// TenantSample is one tenant's sealed-window rollup. Float fields are
// rounded to 6 decimals so the JSON encoding is tidy and digest-stable.
type TenantSample struct {
	Frames uint32 `json:"frames"`
	Drops  uint32 `json:"drops"`
	// FPS is the presented-frame rate over the window (frames/s).
	FPS float64 `json:"fps"`

	M2PCount uint32 `json:"m2p_count"`
	M2PViol  uint32 `json:"m2p_viol"`
	// M2PViolFrac is the window's SLO-violation fraction (0 when no
	// samples).
	M2PViolFrac float64 `json:"m2p_viol_frac"`
	M2PP99MS    float64 `json:"m2p_p99_ms"`

	FetchCount  uint32  `json:"fetch_count"`
	FetchMeanMS float64 `json:"fetch_mean_ms"`
	FetchP99MS  float64 `json:"fetch_p99_ms"`

	// Probes holds the tenant's registered pull signals in registration
	// order (nil when the tenant registered none).
	Probes []float64 `json:"probes,omitempty"`
}

// Window is one sealed virtual-time window.
type Window struct {
	// Index is the window's position in the run: [Index*W, (Index+1)*W).
	Index   int     `json:"index"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	// Partial marks the trailing fraction-of-a-window Finalize seals;
	// detectors skip partial windows.
	Partial bool           `json:"partial,omitempty"`
	Tenants []TenantSample `json:"tenants"`
}

// Monitor is the streaming telemetry engine: per-tenant open-window
// accumulation, a bounded ring of sealed windows, the detector registry's
// instantiated state machines, and the incident flight recorder.
type Monitor struct {
	window  time.Duration
	ringCap int
	context int

	tenants []*Tenant

	// Sealed-window ring: ring[(ringStart+i) % ringCap] for i < ringLen,
	// oldest first.
	ring      []Window
	ringStart int
	ringLen   int
	sealed    int // total windows ever sealed (including evicted + partial)
	nextSeal  int // index of the next unsealed window (the watermark)

	// Run-long per-tenant tail histograms, merged as windows seal.
	cumFetch []fleetobs.LogHistogram
	cumM2P   []fleetobs.LogHistogram

	specs []Spec
	// dets[s][t] is spec s instantiated for tenant t.
	dets [][]detState

	incidents []Incident
	faults    []faultWindow

	tracer   *obs.Tracer
	profiler *prof.Profiler
}

// faultWindow is one announced injected-fault interval.
type faultWindow struct {
	tenant     int
	class      string
	start, end time.Duration
}

// New builds a monitor. Wire each Tenant into its guest (frame observer,
// fetch observer, probes) before the run starts, then call Seal at every
// global seal point (shard barrier or stepped RunUntil) and Finalize once
// at the end.
func New(cfg Config) *Monitor {
	if cfg.Window <= 0 {
		cfg.Window = 200 * time.Millisecond
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.Context <= 0 {
		cfg.Context = 16
	}
	if cfg.Context > cfg.Ring {
		cfg.Context = cfg.Ring
	}
	if cfg.Detectors == nil {
		cfg.Detectors = DefaultSpecs()
	}
	m := &Monitor{
		window:   cfg.Window,
		ringCap:  cfg.Ring,
		context:  cfg.Context,
		ring:     make([]Window, cfg.Ring),
		specs:    cfg.Detectors,
		tracer:   cfg.Tracer,
		profiler: cfg.Profiler,
	}
	for i, tc := range cfg.Tenants {
		m.tenants = append(m.tenants, &Tenant{cfg: tc, mon: m, index: i})
	}
	m.cumFetch = make([]fleetobs.LogHistogram, len(m.tenants))
	m.cumM2P = make([]fleetobs.LogHistogram, len(m.tenants))
	m.dets = make([][]detState, len(m.specs))
	for s := range m.specs {
		m.dets[s] = make([]detState, len(m.tenants))
		for t := range m.dets[s] {
			m.dets[s][t].init(&m.specs[s])
		}
	}
	return m
}

// Tenant returns the i-th declared tenant's feed.
func (m *Monitor) Tenant(i int) *Tenant { return m.tenants[i] }

// WindowWidth returns the configured rollup window width.
func (m *Monitor) WindowWidth() time.Duration { return m.window }

// AddFaultWindow announces an injected-fault interval so incidents can
// report the faults active at their trigger. tenant < 0 declares a
// host-wide fault affecting every tenant.
func (m *Monitor) AddFaultWindow(tenant int, class string, start, dur time.Duration) {
	m.faults = append(m.faults, faultWindow{tenant: tenant, class: class, start: start, end: start + dur})
}

// Seal folds every complete window below the watermark `now` into the
// ring, in ascending window order with tenants in index order, then runs
// the detectors on each. Call it at points where every tenant's samples
// below `now` are guaranteed recorded: a ShardGroup barrier (AtBarrier) or
// after a single-env RunUntil(now). Observe-only: sealing never touches
// the simulation.
func (m *Monitor) Seal(now time.Duration) {
	for time.Duration(m.nextSeal+1)*m.window <= now {
		end := time.Duration(m.nextSeal+1) * m.window
		m.sealOne(end, false)
	}
}

// Finalize seals the remaining complete windows and, when the run ends
// mid-window, one trailing partial window (skipped by detectors).
func (m *Monitor) Finalize(end time.Duration) {
	m.Seal(end)
	if start := time.Duration(m.nextSeal) * m.window; end > start {
		m.sealOne(end, true)
	}
}

// sealOne seals the window m.nextSeal as [nextSeal*W, end).
func (m *Monitor) sealOne(end time.Duration, partial bool) {
	start := time.Duration(m.nextSeal) * m.window
	w := Window{
		Index:   m.nextSeal,
		StartMS: ms(start),
		EndMS:   ms(end),
		Partial: partial,
		Tenants: make([]TenantSample, len(m.tenants)),
	}
	span := end - start
	for ti, t := range m.tenants {
		var a accum
		if len(t.open) > 0 {
			a = t.open[0]
			// Shift the open windows down one slot, keeping the backing
			// array (the only per-window work is this tiny copy).
			copy(t.open, t.open[1:])
			t.open = t.open[:len(t.open)-1]
		}
		s := &w.Tenants[ti]
		s.Frames, s.Drops = a.frames, a.drops
		if span > 0 {
			s.FPS = round6(float64(a.frames) * float64(time.Second) / float64(span))
		}
		s.M2PCount, s.M2PViol = a.m2pCount, a.m2pViol
		if a.m2pCount > 0 {
			s.M2PViolFrac = round6(float64(a.m2pViol) / float64(a.m2pCount))
			s.M2PP99MS = round6(a.m2p.Percentile(99))
		}
		s.FetchCount = a.fetchCount
		if a.fetchCount > 0 {
			s.FetchMeanMS = round6(a.fetch.Mean())
			s.FetchP99MS = round6(a.fetch.Percentile(99))
		}
		m.cumFetch[ti].Merge(&a.fetch)
		m.cumM2P[ti].Merge(&a.m2p)
		if len(t.probes) > 0 {
			s.Probes = make([]float64, len(t.probes))
			for pi := range t.probes {
				p := &t.probes[pi]
				v := p.fn()
				switch p.kind {
				case ProbeDelta:
					s.Probes[pi] = round6(v - p.last)
					p.last = v
				default:
					s.Probes[pi] = round6(v)
				}
			}
		}
	}
	m.nextSeal++
	m.sealed++
	m.push(w)
	if !partial {
		m.detect(m.latest())
	}
}

// push appends a sealed window to the ring, evicting the oldest at
// capacity.
func (m *Monitor) push(w Window) {
	if m.ringLen < m.ringCap {
		m.ring[(m.ringStart+m.ringLen)%m.ringCap] = w
		m.ringLen++
		return
	}
	m.ring[m.ringStart] = w
	m.ringStart = (m.ringStart + 1) % m.ringCap
}

// latest returns the most recently sealed window.
func (m *Monitor) latest() *Window {
	return &m.ring[(m.ringStart+m.ringLen-1)%m.ringCap]
}

// windowAt returns the retained window with the given index, nil if
// evicted or never sealed.
func (m *Monitor) windowAt(index int) *Window {
	// Ring windows have consecutive indexes ending at the latest; walk
	// back from the newest (ringLen is small and this runs only while
	// assembling incidents).
	for i := m.ringLen - 1; i >= 0; i-- {
		w := &m.ring[(m.ringStart+i)%m.ringCap]
		if w.Index == index {
			return w
		}
		if w.Index < index {
			return nil
		}
	}
	return nil
}

// Windows returns the retained sealed windows, oldest first.
func (m *Monitor) Windows() []Window {
	out := make([]Window, 0, m.ringLen)
	for i := 0; i < m.ringLen; i++ {
		out = append(out, m.ring[(m.ringStart+i)%m.ringCap])
	}
	return out
}

// Incidents returns every incident raised so far, in fire order.
func (m *Monitor) Incidents() []Incident { return m.incidents }

// activeFaults lists the announced fault windows overlapping [start, end)
// that apply to tenant ti, formatted "class[start-end)" in announce order.
func (m *Monitor) activeFaults(ti int, start, end time.Duration) []string {
	var out []string
	for _, f := range m.faults {
		if f.tenant >= 0 && f.tenant != ti {
			continue
		}
		if f.end > start && f.start < end {
			out = append(out, f.class+"["+f.start.String()+"-"+f.end.String()+")")
		}
	}
	return out
}

// ms converts a virtual duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// round6 rounds to 6 decimals, squashing negative zero, so the JSON
// encodings stay short and byte-stable.
func round6(v float64) float64 {
	r := float64(int64(v*1e6+copysign05(v))) / 1e6
	if r == 0 {
		return 0
	}
	return r
}

func copysign05(v float64) float64 {
	if v < 0 {
		return -0.5
	}
	return 0.5
}
