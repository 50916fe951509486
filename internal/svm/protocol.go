package svm

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// protocol is the coherence strategy behind a manager. ensureReadable runs
// in the accessor's process and must leave acc.Domain holding the current
// version; onWriteEnd runs in the writer's process when a write commits and
// returns the guest-driver compensation time (nonzero only for the prefetch
// protocol's adaptive synchronism, §3.3).
type protocol interface {
	ensureReadable(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes)
	onWriteEnd(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) time.Duration
}

// copyCoherence performs one coherence maintenance copy in p's context,
// charging the fixed scheduling cost plus link transfer time, and feeds the
// stats and bandwidth observations. sync selects the slow CPU-driven copy
// path (demand fetches cannot use DMA, §5.4).
func (m *Manager) copyCoherence(p *sim.Proc, from, to *hostsim.Domain, bytes hostsim.Bytes, direct, sync bool) time.Duration {
	return m.copyCoherenceOpts(p, from, to, bytes, direct, sync, false)
}

// copyCoherenceOpts is copyCoherence with the batching knob: skipFixed
// elides the fixed scheduling cost for pushes riding a batch whose header
// was already charged (notification batching, DESIGN.md §9).
func (m *Manager) copyCoherenceOpts(p *sim.Proc, from, to *hostsim.Domain, bytes hostsim.Bytes, direct, sync, skipFixed bool) time.Duration {
	start := p.Now()
	if m.cfg.CoherenceFixedCost > 0 && !skipFixed {
		p.Sleep(m.cfg.CoherenceFixedCost)
		if m.pf != nil {
			m.pf.Charge(p, "svm:coherence-fixed", start)
		}
	}
	_, service := m.mach.CopyDetailed(p, from, to, bytes, sync)
	elapsed := p.Now() - start
	m.om.coherenceCost.ObserveDuration(elapsed)
	m.stats.CoherenceCost.AddDuration(elapsed)
	m.stats.BytesCoherence += bytes
	if direct {
		m.stats.DirectCoherence++
	} else {
		m.stats.GuestCoherence++
	}
	// Only DMA copies feed the bandwidth-congestion signal — demand
	// fetches are slow by mode, not by congestion — and only pure wire
	// time counts, so that fixed scheduling cost and incidental queueing
	// on small copies do not masquerade as congestion.
	if m.engine != nil && service > 0 && !sync {
		m.engine.ObserveBandwidth(m.pathKey(from, to), float64(bytes)/service.Seconds(), p.Now())
	}
	return elapsed
}

// pathKey returns the "from->to" name the prefetch engine (and the fault
// layer) key a transfer path's bandwidth by, built once per domain pair.
func (m *Manager) pathKey(from, to *hostsim.Domain) string {
	k := [2]*hostsim.Domain{from, to}
	s, ok := m.pathKeys[k]
	if !ok {
		s = from.Name + "->" + to.Name
		m.pathKeys[k] = s
	}
	return s
}

// demandFetch synchronously brings acc.Domain current from the owner. It
// dispatches to the chunked pipeline (§11) when enabled, or the slow
// synchronous copy path otherwise, and reports the reader-perceived latency
// of either to the fetch observer.
func (m *Manager) demandFetch(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes, direct bool) {
	if m.fetchObs == nil {
		m.demandFetchInner(p, r, acc, bytes, direct)
		return
	}
	start := p.Now()
	m.demandFetchInner(p, r, acc, bytes, direct)
	m.fetchObs(p.Now(), p.Now()-start)
}

func (m *Manager) demandFetchInner(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes, direct bool) {
	if m.cfg.Fetch.Enabled {
		m.chunkedDemandFetch(p, r, acc, bytes, direct)
		return
	}
	m.stats.DemandFetches++
	m.om.demandFetches.Inc()
	if m.pf != nil {
		// Class scope: every component charged inside the fetch (fixed
		// cost, link queue, sync copy) also lands in the "demand-fetch"
		// attribution table — the Fig. 16 breakdown.
		m.pf.BeginClass(p, "demand-fetch")
		defer m.pf.EndClass(p)
	}
	if m.coal != nil {
		// A demand fetch means a latency-sensitive reader found nothing in
		// place: collapse the coalescing window toward its domain so the
		// Fig. 16 tail does not absorb batching delay.
		m.coal.pressure(acc.Domain)
	}
	if m.tr != nil {
		m.tr.Instant(m.trackFor(acc.Name), "demand-fetch")
	}
	from := r.owner
	if !direct {
		from = m.mach.Guest
	}
	m.copyCoherence(p, from, acc.Domain, bytes, direct, true)
	r.copies[acc.Domain] = r.version
}

// asyncPush starts an asynchronous copy of the current version toward dom,
// shared by the prefetch and broadcast protocols. Completion installs the
// copy only if the version is still current; otherwise the bytes are waste.
// With batching enabled the push joins dom's open batch instead of
// dispatching on its own.
func (m *Manager) asyncPush(r *Region, from, dom *hostsim.Domain, bytes hostsim.Bytes, recordTiming bool) {
	if r.inflight[dom] != nil {
		return // a push toward dom is already running
	}
	if m.coal != nil {
		b := m.coal.enqueue(r, from, dom, bytes, recordTiming)
		m.coal.noteWriteBatch(b)
		return
	}
	version := r.version
	inf := &inflightFetch{done: sim.NewEvent(m.env), version: version, started: m.env.Now()}
	if m.pf != nil {
		inf.node = m.pf.NewNode("svm:push", "svm:push-pending")
	}
	r.inflight[dom] = inf
	m.stats.CoherencePushes++
	m.stats.CoherenceBatches++ // unbatched: every push is its own transaction
	m.env.Spawn("svm-push", func(hp *sim.Proc) {
		var asp obs.AsyncSpan
		if m.tr != nil {
			asp = m.tr.BeginAsync(m.prefTk, "push:"+from.Name+"->"+dom.Name)
		}
		if m.pf != nil {
			m.pf.Bind(hp, inf.node)
		}
		elapsed := m.copyCoherence(hp, from, dom, bytes, true, false)
		if m.tr != nil {
			m.tr.EndAsync(m.prefTk, asp)
		}
		if m.pf != nil {
			m.pf.Finish(inf.node)
			m.pf.Bind(hp, nil)
		}
		m.completePush(r, dom, version, bytes, recordTiming, elapsed, inf)
	})
}

// completePush installs one finished push: the copy lands only if the
// version is still current, the inflight entry is retired, and waiters are
// woken. Shared by the unbatched push proc and the batch proc.
func (m *Manager) completePush(r *Region, dom *hostsim.Domain, version uint64,
	bytes hostsim.Bytes, recordTiming bool, elapsed time.Duration, inf *inflightFetch) {

	if !r.freed && r.version == version {
		r.copies[dom] = version
		r.delivered[dom] = true
		if recordTiming {
			if mp, ok := m.twin.Lookup(uint64(r.ID)); ok && mp.Physical != nil {
				mp.Physical.Observe(prefetch.StatPrefetchMS,
					float64(elapsed)/float64(time.Millisecond))
			}
			if r.predTimed {
				errMS := float64(elapsed-r.predPf) / float64(time.Millisecond)
				if errMS < 0 {
					errMS = -errMS
				}
				m.stats.PrefetchTimeError.Add(errMS)
			}
		}
	} else {
		m.stats.BytesWasted += bytes
	}
	if r.inflight[dom] == inf {
		delete(r.inflight, dom)
	}
	inf.done.Signal()
}

// awaitOrDemand is the read path shared by protocols with asynchronous
// pushes: consume an arrived copy, wait out an in-flight one, or fall back
// to a demand fetch.
func (m *Manager) awaitOrDemand(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) {
	if r.HasCurrentCopy(acc.Domain) {
		if r.delivered[acc.Domain] {
			r.delivered[acc.Domain] = false
			m.stats.PrefetchHits++
			m.om.prefetchHits.Inc()
		} else if acc.Domain == r.owner {
			m.stats.SameDomainHits++
		}
		return
	}
	if inf := r.inflight[acc.Domain]; inf != nil && inf.version == r.version {
		if m.coal != nil {
			// The reader is blocked on a push that may still be parked in
			// an open batch: dispatch the batch now and record the latency
			// pressure so the next window starts at zero.
			m.coal.expedite(acc.Domain)
		}
		m.stats.PrefetchWaits++
		m.om.prefetchWaits.Inc()
		pwStart := p.Now()
		inf.done.Wait(p)
		if m.pf != nil {
			m.pf.Wait(p, "svm:prefetch-wait", pwStart, inf.node)
		}
		if r.HasCurrentCopy(acc.Domain) {
			r.delivered[acc.Domain] = false
			return
		}
	}
	m.demandFetch(p, r, acc, bytes, true)
}
