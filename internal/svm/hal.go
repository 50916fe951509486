package svm

import (
	"errors"

	"repro/internal/hostsim"
	"repro/internal/sim"
)

// Handle is the opaque buffer handle of the mobile shared-memory interface
// (buffer_handle_t in Fig. 3). Handles are what apps and system services
// pass between SoC device interfaces.
type Handle uint64

// ErrUnknownHandle is returned for handles that were never allocated or
// were already freed.
var ErrUnknownHandle = errors.New("svm: unknown buffer handle")

// Module is the shared-memory HAL module of Fig. 3: the alloc / free /
// begin_access / end_access interface that mobile systems expose at the
// Hardware Abstraction Layer (§2.1), implemented on top of the SVM Manager.
// CPU-side accesses (system services and apps) go through a Module; device
// accesses go straight to the Manager with the device's own accessor.
type Module struct {
	m   *Manager
	cpu Accessor
	// handles is indexed by Handle: handles are issued in order from 1 and
	// never reused, and a freed handle's entry is 0, an ID no region has.
	handles []RegionID
}

// NewModule returns a HAL module whose API calls access memory as cpu — the
// accessor describing where CPU-visible SVM data lives in this emulator's
// architecture (guest pages for modular emulators, host DRAM for vSoC).
func NewModule(m *Manager, cpu Accessor) *Module {
	cpu.CPU = true
	return &Module{m: m, cpu: cpu, handles: make([]RegionID, 1)}
}

// region resolves a live handle.
func (h *Module) region(hd Handle) (RegionID, bool) {
	if hd >= Handle(len(h.handles)) || h.handles[hd] == 0 {
		return 0, false
	}
	return h.handles[hd], true
}

// Alloc allocates a shared memory region and returns a handle to it.
func (h *Module) Alloc(p *sim.Proc, size hostsim.Bytes) (Handle, error) {
	r, err := h.m.Alloc(size)
	if err != nil {
		return 0, err
	}
	h.handles = append(h.handles, r.ID)
	return Handle(len(h.handles) - 1), nil
}

// Free releases the region behind a handle.
func (h *Module) Free(p *sim.Proc, hd Handle) error {
	id, ok := h.region(hd)
	if !ok {
		return ErrUnknownHandle
	}
	h.handles[hd] = 0
	return h.m.Free(id)
}

// RegionOf resolves a handle to its region ID, the identity device drivers
// carry in commands instead of the data itself (§3.2).
func (h *Module) RegionOf(hd Handle) (RegionID, error) {
	id, ok := h.region(hd)
	if !ok {
		return 0, ErrUnknownHandle
	}
	return id, nil
}

// BeginAccess begins a CPU access to the shared memory. usage specifies
// RO/WO/RW; bytes bounds the accessed range (0 = whole region). The
// returned Access stands in for the mapped virtual address.
func (h *Module) BeginAccess(p *sim.Proc, hd Handle, usage Usage, bytes hostsim.Bytes) (Access, error) {
	id, ok := h.region(hd)
	if !ok {
		return Access{}, ErrUnknownHandle
	}
	return h.m.BeginAccess(p, id, h.cpu, usage, bytes)
}
