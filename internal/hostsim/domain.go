// Package hostsim models the heterogeneous PC/server host hardware that a
// mobile emulator runs on: memory domains (main memory, GPU VRAM, device
// buffers, guest pages), the links between them (memcpy, PCIe DMA, the
// virtualization boundary, USB), compute devices with contention, and the
// thermal behaviour of laptop-class machines.
//
// The paper's core observation (§2.2) is that PC/server devices have
// physically distributed memory joined by buses, unlike a mobile SoC's
// unified memory. This package is that distributed-memory substrate: every
// byte moved between domains costs simulated time on a shared link, so the
// two-copy vs four-copy difference between vSoC and modular emulators (§3.2)
// falls out of routing rather than being assumed.
//
// All contention and transfer timing resolves through the deterministic
// event kernel — link service order is a function of (virtual time,
// sequence), never host scheduling — so equal seeds move every byte at the
// same simulated instant.
//
// Two optional layers ride on the link graph. fetch.go is the chunked,
// DMA-promoted demand-fetch pipeline (DESIGN.md §11): large synchronous
// copies split into chunks that overlap on the link's DMA lane, off by
// default and byte-identical to absent when off. shared.go is the
// shared-host arbiter for multi-guest farms (DESIGN.md §12): an aggregate
// bandwidth budget applied to every guest's links at fixed arbitration
// windows, deterministic because scale decisions depend only on
// virtual-time demand observed at window boundaries.
package hostsim

import "fmt"

// Bytes is a size in bytes.
type Bytes = int64

// Common sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
)

// DomainKind classifies a memory domain's physical location.
type DomainKind int

const (
	// HostDRAM is the machine's main memory, accessed by host processes.
	HostDRAM DomainKind = iota
	// GuestPages is guest physical memory: physically part of main memory
	// but non-contiguous scattered pages behind the virtualization
	// boundary, so copies to or from it are expensive (§2.2, footnote 3).
	GuestPages
	// GPUVRAM is the discrete GPU's device memory behind PCIe.
	GPUVRAM
	// PeripheralBuffer is the staging memory of a peripheral such as a USB
	// camera or NIC ring, reachable only via its peripheral bus.
	PeripheralBuffer
)

var domainKindNames = map[DomainKind]string{
	HostDRAM:         "host-dram",
	GuestPages:       "guest-pages",
	GPUVRAM:          "gpu-vram",
	PeripheralBuffer: "peripheral",
}

func (k DomainKind) String() string {
	if s, ok := domainKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("DomainKind(%d)", int(k))
}

// Domain is one physically distinct memory pool.
type Domain struct {
	Name string
	Kind DomainKind
}

func (d *Domain) String() string { return d.Name }
