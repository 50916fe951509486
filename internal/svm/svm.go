// Package svm implements vSoC's unified shared-virtual-memory framework
// (§3.2, §3.3): the SVM Manager with its region table and twin-hypergraph
// flow tracking, and the coherence protocols — the prefetch protocol that is
// vSoC's contribution, plus the write-invalidate, broadcast, and
// guest-memory-backed protocols used as baselines and ablations.
//
// The manager presents one model to every virtual device: regions are
// identified by 64-bit IDs, data lives in whichever physical memory domain
// last wrote it, and BeginAccess brings the accessor's domain up to date —
// by demand fetch, by waiting out an in-flight prefetch, or for free when the
// prefetch engine already delivered the bytes during the slack interval.
//
// Coherence advances only in virtual time and is deterministic: protocol
// decisions are functions of simulated access history, so equal seeds
// produce identical copy schedules, hit/miss sequences, and statistics.
package svm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/prof"
	"repro/internal/sim"
)

// RegionID is the unique 64-bit identifier assigned to each SVM region at
// allocation (§3.2).
type RegionID uint64

// Usage describes an access's direction, mirroring the RO/WO/RW usage flag
// of the Fig. 3 interface.
type Usage int

const (
	// UsageRead is a read-only access.
	UsageRead Usage = 1 << iota
	// UsageWrite is a write-only access (full overwrite of the accessed
	// range, the data-pipeline common case).
	UsageWrite
	// UsageReadWrite both reads and writes.
	UsageReadWrite = UsageRead | UsageWrite
)

func (u Usage) reads() bool  { return u&UsageRead != 0 }
func (u Usage) writes() bool { return u&UsageWrite != 0 }

func (u Usage) String() string {
	switch u {
	case UsageRead:
		return "RO"
	case UsageWrite:
		return "WO"
	case UsageReadWrite:
		return "RW"
	}
	return fmt.Sprintf("Usage(%d)", int(u))
}

// Accessor identifies who is touching a region: the virtual device, the
// physical device it is currently mapped to, and the memory domain holding
// that physical device's local copy. Virtual-to-physical mapping is dynamic
// (§3.2) — the same virtual codec may arrive here mapped to the GPU's NVDEC
// one call and to the CPU (software decode) the next.
type Accessor struct {
	Virtual  hypergraph.NodeID
	Physical hypergraph.NodeID
	Domain   *hostsim.Domain
	Name     string
	// CPU marks accesses made through the HAL shared-memory API by guest
	// processes (apps and system services). Their begin_access latency is
	// what Table 2 reports; device-side accesses appear only in the
	// overall access-latency distribution (Fig. 16).
	CPU bool
}

func (a Accessor) same(b Accessor) bool {
	return a.Virtual == b.Virtual && a.Physical == b.Physical
}

// Kind selects the coherence protocol.
type Kind int

const (
	// KindPrefetch is vSoC's prefetch coherence protocol (§3.3).
	KindPrefetch Kind = iota
	// KindWriteInvalidate lazily fetches at begin_access (the §5.4
	// ablation and classic baseline protocol).
	KindWriteInvalidate
	// KindBroadcast pushes every write to all domains holding copies (the
	// related-work baseline, §7).
	KindBroadcast
	// KindGuestSync is the modular-emulator architecture (§2.2): guest
	// memory backs every region; writers push to guest memory, readers
	// pull from it, and every device copy crosses the virtualization
	// boundary.
	KindGuestSync
)

var kindNames = map[Kind]string{
	KindPrefetch:        "prefetch",
	KindWriteInvalidate: "write-invalidate",
	KindBroadcast:       "broadcast",
	KindGuestSync:       "guest-sync",
}

func (k Kind) String() string { return kindNames[k] }

// Config parameterizes a manager.
type Config struct {
	// Kind selects the coherence protocol.
	Kind Kind
	// AccessBaseCost is the fixed cost of one begin_access call (page
	// mapping, API transport): the floor of the access-latency metric.
	AccessBaseCost time.Duration
	// CoherenceFixedCost is the fixed scheduling/command cost added to
	// every coherence copy on top of the link transfer time.
	CoherenceFixedCost time.Duration
	// Prefetch configures the prefetch engine (KindPrefetch only).
	Prefetch prefetch.Config
	// Fetch configures chunked, DMA-promoted demand fetches (DESIGN.md
	// §11). The zero value disables chunking: demand fetches stay on the
	// monolithic synchronous copy path, byte-identical to the pre-chunking
	// manager.
	Fetch hostsim.FetchConfig
}

// DefaultConfig returns a vSoC-style configuration.
func DefaultConfig() Config {
	return Config{
		Kind:               KindPrefetch,
		AccessBaseCost:     300 * time.Microsecond,
		CoherenceFixedCost: 500 * time.Microsecond,
		Prefetch:           prefetch.DefaultConfig(),
	}
}

// Errors returned by manager operations.
var (
	ErrUnknownRegion = errors.New("svm: unknown region")
	ErrFreed         = errors.New("svm: region already freed")
	ErrBadSize       = errors.New("svm: access size exceeds region")
	ErrAccessEnded   = errors.New("svm: access already ended")
)

// Manager is the SVM Manager: it owns the region table, the twin
// hypergraphs, and the coherence protocol.
type Manager struct {
	env    *sim.Env
	mach   *hostsim.Machine
	cfg    Config
	twin   *hypergraph.Twin
	engine *prefetch.Engine
	proto  protocol

	regions map[RegionID]*Region
	nextID  RegionID

	physDomain map[hypergraph.NodeID]*hostsim.Domain
	// pathKeys interns the engine's per-path bandwidth keys by
	// (from, to) domain pair; nil without a prefetch engine.
	pathKeys map[[2]*hostsim.Domain]string

	stats    Stats
	observer AccessObserver
	fetchObs FetchObserver
	// freeAccess holds ended access records for reuse, freePush finished
	// push records.
	freeAccess *accessRec
	freePush   *pushRec

	// Observability (all nil-safe when tracing is off). Accessor tracks
	// are interned lazily: most runs touch a handful of accessors.
	tr     *obs.Tracer
	pf     *prof.Profiler
	prefTk obs.Track
	accTk  map[string]obs.Track
}

// AccessObserver receives every completed BeginAccess — the instrumentation
// hook the §2.3 measurement study attaches to the shared memory interface.
type AccessObserver func(at time.Duration, acc Accessor, region RegionID,
	bytes hostsim.Bytes, usage Usage, latency time.Duration)

// NewManager returns a manager over the given machine.
func NewManager(env *sim.Env, mach *hostsim.Machine, cfg Config) *Manager {
	m := &Manager{
		env:        env,
		mach:       mach,
		cfg:        cfg,
		twin:       hypergraph.NewTwin(),
		regions:    make(map[RegionID]*Region),
		physDomain: make(map[hypergraph.NodeID]*hostsim.Domain),
	}
	if m.tr = env.Tracer(); m.tr != nil {
		m.prefTk = m.tr.Track("prefetch")
		m.accTk = make(map[string]obs.Track)
	}
	m.pf = env.Profiler()
	reg := env.Metrics()
	if reg != nil {
		m.register(reg)
	}
	switch cfg.Kind {
	case KindPrefetch:
		m.engine = prefetch.New(m.twin, cfg.Prefetch)
		m.engine.SetObs(m.tr, reg)
		m.pathKeys = make(map[[2]*hostsim.Domain]string)
		m.proto = &prefetchProtocol{m: m}
	case KindWriteInvalidate:
		m.proto = &writeInvalidateProtocol{m: m}
	case KindBroadcast:
		m.proto = &broadcastProtocol{m: m}
	case KindGuestSync:
		m.proto = &guestSyncProtocol{m: m}
	default:
		panic(fmt.Sprintf("svm: unknown protocol kind %d", cfg.Kind))
	}
	if cfg.Fetch.Enabled {
		m.cfg.Fetch = cfg.Fetch.Resolved()
	}
	return m
}

// register exposes the manager's own counts to the metrics view.
func (m *Manager) register(reg *obs.Registry) {
	st := &m.stats
	reg.Count("svm.accesses", &st.Accesses)
	reg.Count("svm.reads", &st.Reads)
	reg.Count("svm.writes", &st.Writes)
	reg.Count("svm.prefetch_hits", &st.PrefetchHits)
	reg.Count("svm.prefetch_waits", &st.PrefetchWaits)
	reg.CounterFunc("svm.demand_fetches", func() int64 {
		if m.cfg.Kind == KindGuestSync {
			// Guest-sync reads pull through guest memory (§2.2) and never
			// take the demand-fetch path this metric counts.
			return 0
		}
		return int64(st.DemandFetches)
	})
	reg.HistogramFunc("svm.access_latency_ms", func() *metrics.Distribution { return &st.AccessLatency })
	reg.HistogramFunc("svm.coherence_cost_ms", func() *metrics.Distribution { return &st.CoherenceCost })
}

// trackFor interns the trace track of one accessor. Only called with a
// non-nil tracer.
func (m *Manager) trackFor(name string) obs.Track {
	tk, ok := m.accTk[name]
	if !ok {
		tk = m.tr.Track("svm:" + name)
		m.accTk[name] = tk
	}
	return tk
}

// Twin returns the twin hypergraphs (read-only use by callers).
func (m *Manager) Twin() *hypergraph.Twin { return m.twin }

// Engine returns the prefetch engine, or nil for non-prefetch kinds.
func (m *Manager) Engine() *prefetch.Engine { return m.engine }

// Kind returns the active protocol kind.
func (m *Manager) Kind() Kind { return m.cfg.Kind }

// Stats returns the manager's accumulated statistics.
func (m *Manager) Stats() *Stats { return &m.stats }

// SetObserver installs the access instrumentation hook (nil to disable).
func (m *Manager) SetObserver(o AccessObserver) { m.observer = o }

// FetchObserver receives one callback per completed demand fetch — the
// reader-perceived latency from entering the fetch to its copy being
// installed, monolithic or chunked alike. at is the virtual completion
// instant. Purely observational: the callback runs after the fetch's last
// simulated effect, so it cannot perturb results.
type FetchObserver func(at, latency time.Duration)

// SetFetchObserver installs the demand-fetch latency hook (nil to disable).
// The nil path costs one branch and no allocation.
func (m *Manager) SetFetchObserver(o FetchObserver) { m.fetchObs = o }

// RegisterVirtualDevice declares a virtual device node. Nodes must be
// registered at startup, before any flow involving them is observed.
func (m *Manager) RegisterVirtualDevice(id hypergraph.NodeID, name string) {
	m.twin.Virtual.AddNode(id, name)
}

// RegisterPhysicalDevice declares a physical device node and the memory
// domain holding its local copies.
func (m *Manager) RegisterPhysicalDevice(id hypergraph.NodeID, name string, domain *hostsim.Domain) {
	m.twin.Physical.AddNode(id, name)
	m.physDomain[id] = domain
}

// PredictCompensation returns the guest-driver blocking time the prefetch
// protocol would request for a write of bytes to region id by acc, without
// side effects. Guest drivers query this through the shared MMIO state when
// pacing themselves ahead of the host's write commit (§3.3); it returns zero
// for non-prefetch protocols and for unpredictable regions.
func (m *Manager) PredictCompensation(id RegionID, acc Accessor, bytes hostsim.Bytes) time.Duration {
	if m.engine == nil {
		return 0
	}
	r, err := m.Region(id)
	if err != nil {
		return 0
	}
	if bytes == 0 {
		bytes = r.Size
	}
	now := m.env.Now()
	if m.engine.Suspended(now) {
		return 0
	}
	var readers [4]hypergraph.NodeID
	pred, ok := m.engine.Predict(uint64(id), acc.Physical, bytes, now, readers[:0])
	if !ok {
		return 0
	}
	return pred.Compensation
}

// Alloc creates a region of the given size. Memory is lazily materialized:
// the region costs nothing until first accessed (§3.2).
func (m *Manager) Alloc(size hostsim.Bytes) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("svm: invalid region size %d", size)
	}
	m.nextID++
	r := &Region{
		ID:        m.nextID,
		Size:      size,
		copies:    make(map[*hostsim.Domain]uint64),
		inflight:  make(map[*hostsim.Domain]*inflightFetch),
		delivered: make(map[*hostsim.Domain]bool),
	}
	m.regions[r.ID] = r
	return r, nil
}

// Region resolves an ID.
func (m *Manager) Region(id RegionID) (*Region, error) {
	r, ok := m.regions[id]
	if !ok {
		return nil, ErrUnknownRegion
	}
	if r.freed {
		return nil, ErrFreed
	}
	return r, nil
}

// Free releases a region and unmaps it from the twin hypergraphs.
func (m *Manager) Free(id RegionID) error {
	r, err := m.Region(id)
	if err != nil {
		return err
	}
	r.freed = true
	m.twin.Unmap(uint64(id))
	delete(m.regions, id)
	return nil
}

// MemoryFootprint estimates the manager's own resident bytes: the twin
// hypergraphs plus region-table entries (the §5.2 "3.1 MiB" bound).
func (m *Manager) MemoryFootprint() int64 {
	const regionEntry = 256
	return m.twin.MemoryFootprint() + int64(len(m.regions))*regionEntry
}
