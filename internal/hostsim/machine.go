package hostsim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Machine is a complete host: memory domains, the links joining them, and
// the physical compute devices. It is the hardware a virtual SoC is mapped
// onto.
type Machine struct {
	Env  *sim.Env
	Name string

	// Memory domains.
	DRAM   *Domain // host main memory
	Guest  *Domain // guest physical pages (behind the virtualization boundary)
	VRAM   *Domain // discrete GPU memory
	CamBuf *Domain // camera peripheral buffer
	NICBuf *Domain // NIC ring buffer

	// Compute devices.
	CPU    *Device
	GPU    *Device
	Camera *Device
	NIC    *Device

	// Thermal is non-nil on machines that throttle under sustained load.
	Thermal *Thermal

	// Perf holds the machine's per-operation cost profile.
	Perf Perf

	// CameraLatency is the physical capture-to-buffer latency of the
	// camera hardware (§5.3: the laptop's integrated camera is ~10 ms
	// faster than the desktop's USB camera).
	CameraLatency time.Duration

	// HWDecode reports hardware decoder support (NVDEC).
	HWDecode bool

	// links holds the direct link of each directional domain pair, and
	// routes the path a copy between them takes, found on first use and
	// forgotten whenever a link is added; both are indexed [from.ID][to.ID].
	links  [MaxDomains][MaxDomains]*Link
	routes [MaxDomains][MaxDomains]route
	// linkOrder preserves registration order so link enumeration (and
	// anything seeded from it, like fault schedules) is deterministic.
	linkOrder []*Link

	// freeTransfer and freeReader hold recycled chunked-fetch records.
	freeTransfer *ChunkedTransfer
	freeReader   *chunkReader
}

// NewMachine returns a machine shell with its MaxDomains domains created,
// numbered 0 to MaxDomains-1, but no links or devices; the preset
// constructors populate it.
func NewMachine(env *sim.Env, name string) *Machine {
	m := &Machine{
		Env:    env,
		Name:   name,
		DRAM:   &Domain{Name: "dram", Kind: HostDRAM, ID: 0},
		Guest:  &Domain{Name: "guest", Kind: GuestPages, ID: 1},
		VRAM:   &Domain{Name: "vram", Kind: GPUVRAM, ID: 2},
		CamBuf: &Domain{Name: "cam-buf", Kind: PeripheralBuffer, ID: 3},
		NICBuf: &Domain{Name: "nic-buf", Kind: PeripheralBuffer, ID: 4},
	}
	return m
}

// AddLink registers a directional link between two domains.
func (m *Machine) AddLink(from, to *Domain, name string, bandwidth float64, latency time.Duration) *Link {
	l := NewLink(m.Env, name, bandwidth, latency)
	m.links[from.ID][to.ID] = l
	m.routes = [MaxDomains][MaxDomains]route{}
	m.linkOrder = append(m.linkOrder, l)
	return l
}

// AddDuplexLink registers the same link characteristics in both directions
// as two independent links (full duplex).
func (m *Machine) AddDuplexLink(a, b *Domain, name string, bandwidth float64, latency time.Duration) {
	m.AddLink(a, b, name+"-fwd", bandwidth, latency)
	m.AddLink(b, a, name+"-rev", bandwidth, latency)
}

// LinkBetween returns the direct link from one domain to another, or nil.
func (m *Machine) LinkBetween(from, to *Domain) *Link {
	return m.links[from.ID][to.ID]
}

// Links returns all registered links in registration order (for telemetry
// and deterministic enumeration by the fault layer).
func (m *Machine) Links() []*Link {
	out := make([]*Link, len(m.linkOrder))
	copy(out, m.linkOrder)
	return out
}

// CopyDetailed is Copy/CopySync with the pure service (wire) time also
// returned, so callers can separate congestion from queueing noise when
// estimating available bandwidth (§3.3's suspension heuristic).
func (m *Machine) CopyDetailed(p *sim.Proc, from, to *Domain, size Bytes, sync bool) (elapsed, service time.Duration) {
	return m.copy(p, from, to, size, sync)
}

// hop is one link of a route with its endpoint domains (needed for the
// guest-boundary thermal charge).
type hop struct {
	l        *Link
	from, to *Domain
}

// route is the path a copy takes between two domains: the direct link, or
// two hops via DRAM when there is none. The zero route (n == 0) marks a
// pair whose path is not yet known.
type route struct {
	hops [2]hop
	n    int
}

// route returns the path from one domain to another, finding it on first
// use of the pair. A pair with no path panics.
func (m *Machine) route(from, to *Domain) route {
	rt := &m.routes[from.ID][to.ID]
	if rt.n == 0 {
		*rt = m.findRoute(from, to)
	}
	return *rt
}

func (m *Machine) findRoute(from, to *Domain) route {
	if l := m.links[from.ID][to.ID]; l != nil {
		return route{hops: [2]hop{{l, from, to}}, n: 1}
	}
	l1 := m.links[from.ID][m.DRAM.ID]
	l2 := m.links[m.DRAM.ID][to.ID]
	if l1 == nil || l2 == nil {
		panic(fmt.Sprintf("hostsim: no path %s -> %s", from, to))
	}
	return route{hops: [2]hop{{l1, from, m.DRAM}, {l2, m.DRAM, to}}, n: 2}
}

// copy occupies each link on the route. Copies within a single domain use
// its self-link (plain memcpy or in-VRAM blit). Copies that cross the
// virtualization boundary (guest pages on either end) additionally heat the
// CPU, because boundary crossings are vCPU-driven scatter-gather rather
// than DMA (§2.2).
func (m *Machine) copy(p *sim.Proc, from, to *Domain, size Bytes, sync bool) (time.Duration, time.Duration) {
	start := p.Now()
	rt := m.route(from, to)
	var service time.Duration
	for _, h := range rt.hops[:rt.n] {
		d, svc := h.l.transfer(p, size, sync)
		m.heatBoundary(h.from, h.to, d)
		service += svc
	}
	return p.Now() - start, service
}

// RouteCopy is a DMA copy along a route run as a callback chain: the form
// of CopyDetailed for a copy no process waits in, such as a coherence push.
// Per hop it acquires the link, sleeps out the wire time, re-driving lost
// attempts, releases the link and heats the guest boundary, with the same
// per-hop helpers, and at the same instants, as the process form. Each wait
// is one event where the process form's resume would be. An owner embeds a
// RouteCopy in a record it recycles, so a copy allocates nothing.
type RouteCopy struct {
	m     *Machine
	rt    route
	size  Bytes
	key   any    // profiler key of the owner's node
	done  func() // the owner's continuation
	step  func() // rc.resume, bound once
	stage int
	hi    int // current hop

	attempt            int // of the current hop's wire time
	hopStart, svcStart time.Duration
	wire               time.Duration // one attempt of the current hop
	service            time.Duration // of the finished hops
	sp                 obs.Span
}

// The stages of a RouteCopy hop.
const (
	rcAcquire = iota // acquire the hop's link
	rcServe          // the link is held: start the wire time
	rcWire           // a wire attempt ended
)

// Start begins copying size bytes from one domain to another, charging the
// links' queue and DMA components to key's profiler node. It runs inline as
// far as it can: it reports true when the copy finished inline, and false
// when it waits, in which case done runs once the last hop releases its
// link.
func (rc *RouteCopy) Start(m *Machine, key any, from, to *Domain, size Bytes, done func()) bool {
	if rc.step == nil {
		rc.step = rc.resume
	}
	rc.m, rc.rt, rc.size, rc.key, rc.done = m, m.route(from, to), size, key, done
	rc.stage, rc.hi, rc.service = rcAcquire, 0, 0
	return rc.run()
}

// Service returns the finished copy's summed wire time over every hop and
// every re-driven attempt.
func (rc *RouteCopy) Service() time.Duration { return rc.service }

func (rc *RouteCopy) resume() {
	if rc.run() {
		rc.done()
	}
}

// run advances the copy until it must wait, reporting whether it finished.
func (rc *RouteCopy) run() bool {
	env := rc.m.Env
	for {
		h := &rc.rt.hops[rc.hi]
		l := h.l
		switch rc.stage {
		case rcAcquire:
			rc.hopStart = env.Now()
			rc.stage = rcServe
			if !l.sem.AcquireFunc(1, rc.step) {
				return false
			}
		case rcServe:
			rc.svcStart = env.Now()
			rc.sp = l.beginService(rc.key, rc.hopStart, "dma")
			rc.wire = l.TransferTime(rc.size)
			rc.attempt = 0
			rc.stage = rcWire
			if !env.SleepFunc(rc.wire, rc.step) {
				return false
			}
		case rcWire:
			if l.lost(rc.attempt, true) {
				rc.attempt++
				if !env.SleepFunc(rc.wire, rc.step) {
					return false
				}
				continue
			}
			service := rc.wire * time.Duration(rc.attempt+1)
			l.endService(rc.sp, rc.key, l.lblDMA, rc.svcStart)
			l.sem.Release(1)
			l.account(rc.size, service)
			rc.service += service
			rc.m.heatBoundary(h.from, h.to, env.Now()-rc.hopStart)
			rc.stage = rcAcquire
			if rc.hi++; rc.hi == rc.rt.n {
				return true
			}
		}
	}
}

func (m *Machine) heatBoundary(from, to *Domain, d time.Duration) {
	if m.Thermal == nil {
		return
	}
	if from.Kind == GuestPages || to.Kind == GuestPages {
		m.Thermal.AddWork(d)
	}
}
