// Package flowcontrol implements the MIMD (multiplicative-increase,
// multiplicative-decrease) flow control algorithm vSoC adopts from Trinity
// (§3.4) to pace guest command dispatch. Virtual command fences increase
// guest/host asynchronism — guest drivers no longer wait for host execution
// — so without pacing, commands pile up in host command queues. The MIMD
// window bounds in-flight commands: it grows multiplicatively while the host
// keeps up and shrinks multiplicatively when host queues back up.
//
// The window adapts only to virtual-time signals — queue depths sampled at
// simulated instants — never wall-clock load, so pacing decisions are
// deterministic and equal seeds pace identically.
package flowcontrol

import "repro/internal/sim"

// The MIMD parameters, mirroring Trinity-style pacing.
const (
	initialWindow = 8.0 // starting in-flight budget
	minWindow     = 1.0
	maxWindow     = 256.0
	increase      = 1.25 // multiplicative growth per well-paced completion
	decrease      = 0.5  // multiplicative shrink on backlog
	// backlogThreshold is the host-queue depth above which the host is
	// considered backed up.
	backlogThreshold = 32
)

// MIMD is one flow-control instance, typically per guest driver.
type MIMD struct {
	env      *sim.Env
	window   float64
	inflight int
	waiters  []*mimdWaiter
}

type mimdWaiter struct {
	granted *sim.Event
}

// New returns a MIMD pacer.
func New(env *sim.Env) *MIMD {
	return &MIMD{env: env, window: initialWindow}
}

// Acquire charges one command to the window, blocking the guest driver while
// the window is full. FIFO among blocked drivers.
func (m *MIMD) Acquire(p *sim.Proc) {
	if len(m.waiters) == 0 && float64(m.inflight) < m.window {
		m.inflight++
		return
	}
	w := &mimdWaiter{granted: sim.NewEvent(m.env)}
	m.waiters = append(m.waiters, w)
	w.granted.Wait(p)
}

// Complete returns one command's charge and adapts the window based on the
// observed host queue depth at completion time.
func (m *MIMD) Complete(hostQueueDepth int) {
	if m.inflight <= 0 {
		panic("flowcontrol: Complete without Acquire")
	}
	m.inflight--
	if hostQueueDepth > backlogThreshold {
		m.window *= decrease
		if m.window < minWindow {
			m.window = minWindow
		}
	} else {
		m.window *= increase
		if m.window > maxWindow {
			m.window = maxWindow
		}
	}
	m.grant()
}

func (m *MIMD) grant() {
	for len(m.waiters) > 0 && float64(m.inflight) < m.window {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.inflight++
		w.granted.Signal()
	}
}
