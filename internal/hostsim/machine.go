package hostsim

import (
	"fmt"
	"time"

	"repro/internal/fence"
	"repro/internal/sim"
)

// linkKey identifies a directional domain pair.
type linkKey struct{ from, to *Domain }

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

	links map[linkKey]*Link
	// linkOrder preserves registration order so link enumeration (and
	// anything seeded from it, like fault schedules) is deterministic.
	linkOrder []*Link

	// dmaFences is the DMA engine's completion-fence table, backing
	// per-chunk signaling on chunked transfers. Allocated lazily on the
	// first chunked copy so machines that never chunk (chunking off — the
	// default) carry no extra state.
	dmaFences *fence.Table
}

// NewMachine returns a machine shell with domains created but no links or
// devices; the preset constructors populate it.
func NewMachine(env *sim.Env, name string) *Machine {
	m := &Machine{
		Env:    env,
		Name:   name,
		DRAM:   &Domain{Name: "dram", Kind: HostDRAM},
		Guest:  &Domain{Name: "guest", Kind: GuestPages},
		VRAM:   &Domain{Name: "vram", Kind: GPUVRAM},
		CamBuf: &Domain{Name: "cam-buf", Kind: PeripheralBuffer},
		NICBuf: &Domain{Name: "nic-buf", Kind: PeripheralBuffer},
		links:  make(map[linkKey]*Link),
	}
	return m
}

// AddLink registers a directional link between two domains.
func (m *Machine) AddLink(from, to *Domain, name string, bandwidth float64, latency time.Duration) *Link {
	l := NewLink(m.Env, name, bandwidth, latency)
	m.links[linkKey{from, to}] = l
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
	return m.links[linkKey{from, to}]
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

// copy occupies each link on the route. Copies within a single domain use
// its self-link (plain memcpy or in-VRAM blit). Copies that cross the
// virtualization boundary (guest pages on either end) additionally heat the
// CPU, because boundary crossings are vCPU-driven scatter-gather rather
// than DMA (§2.2).
func (m *Machine) copy(p *sim.Proc, from, to *Domain, size Bytes, sync bool) (time.Duration, time.Duration) {
	start := p.Now()
	if l := m.links[linkKey{from, to}]; l != nil {
		d, svc := l.transfer(p, size, sync)
		m.heatBoundary(from, to, d)
		return d, svc
	}
	l1 := m.links[linkKey{from, m.DRAM}]
	l2 := m.links[linkKey{m.DRAM, to}]
	if l1 == nil || l2 == nil {
		panic(fmt.Sprintf("hostsim: no path %s -> %s", from, to))
	}
	d1, svc1 := l1.transfer(p, size, sync)
	m.heatBoundary(from, m.DRAM, d1)
	d2, svc2 := l2.transfer(p, size, sync)
	m.heatBoundary(m.DRAM, to, d2)
	return p.Now() - start, svc1 + svc2
}

func (m *Machine) heatBoundary(from, to *Domain, d time.Duration) {
	if m.Thermal == nil {
		return
	}
	if from.Kind == GuestPages || to.Kind == GuestPages {
		m.Thermal.AddWork(d)
	}
}
