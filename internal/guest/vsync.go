// Package guest models the guest mobile OS mechanisms that shape SVM
// traffic: the VSync clock that paces compositors and render loops, and the
// BufferQueue producer/consumer pools that pipelines use for buffering.
// These are the OS-level synchronization mechanisms that create the slack
// intervals (§2.3) the prefetch engine hides coherence under — the paper
// notes they are hardware-independent, which is why slack distributions look
// alike on emulators and physical devices.
//
// Both mechanisms are deterministic simulation processes: VSync ticks and
// buffer hand-offs are scheduled in virtual time, so equal seeds produce
// identical frame timelines.
package guest

import (
	"time"

	"repro/internal/sim"
)

// VSync is a periodic display-synchronization clock (Android's VSYNC).
type VSync struct {
	// next fires at the coming tick; each tick signals it and re-arms it
	// for the one after.
	next sim.Event
}

// NewVSync starts a VSync clock with the given period (16.67 ms for 60 Hz).
// The first tick fires one period from now.
func NewVSync(env *sim.Env, period time.Duration) *VSync {
	v := &VSync{next: *sim.NewEvent(env)}
	var fire func()
	fire = func() {
		v.next.Signal()
		v.next.Reset()
		env.After(period, fire)
	}
	env.After(period, fire)
	return v
}

// Wait blocks p until the next VSync tick and returns the tick time.
func (v *VSync) Wait(p *sim.Proc) time.Duration {
	v.next.Wait(p)
	return p.Now()
}
