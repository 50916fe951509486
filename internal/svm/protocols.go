package svm

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
)

// prefetchProtocol is vSoC's coherence protocol (§3.3): at each write commit
// it predicts the next readers and pushes the data toward them during the
// slack interval, compensating in the guest driver when the slack is too
// short to hide the copy.
type prefetchProtocol struct{ m *Manager }

func (pp *prefetchProtocol) ensureReadable(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) {
	pp.m.awaitOrDemand(p, r, acc, bytes)
}

func (pp *prefetchProtocol) onWriteEnd(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) time.Duration {
	m := pp.m
	now := p.Now()
	r.predValid = false
	r.predTimed = false
	pred, ok := m.engine.Predict(uint64(r.ID), acc.Physical, now, r.predReaders[:0])
	if !ok || m.engine.Suspended(now) {
		return 0
	}
	if m.tr != nil {
		name := "predict"
		if pred.ZeroShot {
			name = "predict:zero-shot"
		}
		m.tr.Instant(m.prefTk, name)
	}
	r.predValid = true
	r.predReaders = pred.Readers
	r.predTimed = pred.HaveTiming
	r.predSlack = pred.Slack
	r.predPf = pred.PrefetchTime
	for _, node := range pred.Readers {
		dom := m.domainOf(node)
		if dom == nil || dom == acc.Domain {
			continue // reader shares the writer's domain: nothing to move
		}
		m.asyncPush(r, acc.Domain, dom, bytes, true)
	}
	return pred.Compensation
}

// writeInvalidateProtocol is the classic baseline (§5.4 ablation): writes
// invalidate remote copies and readers fetch lazily — synchronously — at
// begin_access, putting the whole coherence cost on the access latency.
type writeInvalidateProtocol struct{ m *Manager }

func (wi *writeInvalidateProtocol) ensureReadable(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) {
	if r.HasCurrentCopy(acc.Domain) {
		return
	}
	wi.m.demandFetch(p, r, acc, bytes, true)
}

func (wi *writeInvalidateProtocol) onWriteEnd(*sim.Proc, *Region, Accessor, hostsim.Bytes) time.Duration {
	return 0
}

// broadcastProtocol is the related-work baseline (§7): every write is pushed
// to every domain that holds a copy, trading bandwidth for latency. Pushes
// toward domains that never read the data are pure waste.
type broadcastProtocol struct{ m *Manager }

func (bp *broadcastProtocol) ensureReadable(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) {
	bp.m.awaitOrDemand(p, r, acc, bytes)
}

func (bp *broadcastProtocol) onWriteEnd(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) time.Duration {
	for _, dom := range r.accessedDomains {
		if dom == acc.Domain {
			continue
		}
		bp.m.asyncPush(r, acc.Domain, dom, bytes, false)
	}
	return 0
}

// guestSyncProtocol is the modular-emulator architecture of §2.2: guest
// memory backs every region. Writers synchronously push their local copy to
// guest memory after each write; readers synchronously pull from guest
// memory before each read. Both copies cross the virtualization boundary,
// which is precisely the inefficiency vSoC removes.
type guestSyncProtocol struct{ m *Manager }

func (gs *guestSyncProtocol) ensureReadable(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) {
	m := gs.m
	if r.HasCurrentCopy(acc.Domain) {
		return
	}
	m.stats.DemandFetches++
	// First leg: the writer's virtual device brings guest memory up to
	// date (skipped when the writer already pushed, or wrote guest pages
	// directly).
	guest := m.mach.Guest
	if r.owner != guest && r.copies[guest.ID] != r.version {
		m.copyCoherence(p, r.owner, guest, bytes, false, false)
		r.copies[guest.ID] = r.version
	}
	// Second leg: the reader's virtual device pulls from guest memory.
	if acc.Domain != guest {
		m.copyCoherence(p, guest, acc.Domain, bytes, false, false)
		r.copies[acc.Domain.ID] = r.version
	}
}

func (gs *guestSyncProtocol) onWriteEnd(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) time.Duration {
	m := gs.m
	if acc.Domain == m.mach.Guest {
		return 0 // wrote guest pages directly
	}
	if acc.Domain.Kind == hostsim.GPUVRAM {
		// GPU-only surface optimization every real emulator has: render
		// targets stay in device memory; guest memory is synchronized
		// lazily only if some other device actually reads the buffer.
		return 0
	}
	// Other device writes keep guest memory eagerly up to date (§2.2).
	m.copyCoherence(p, acc.Domain, m.mach.Guest, bytes, false, false)
	r.copies[m.mach.Guest.ID] = r.version
	return 0
}
