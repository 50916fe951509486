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
	m.noteCoherence(from, to, bytes, direct, sync, elapsed, service)
	return elapsed
}

// noteCoherence books one finished coherence copy, from a process or from a
// push chain: its cost, bytes and path class, and the bandwidth it saw.
// Only DMA copies feed the bandwidth-congestion signal — demand fetches
// are slow by mode, not by congestion — and only pure wire time counts, so
// that fixed scheduling cost and incidental queueing on small copies do
// not masquerade as congestion.
func (m *Manager) noteCoherence(from, to *hostsim.Domain, bytes hostsim.Bytes, direct, sync bool, elapsed, service time.Duration) {
	m.stats.CoherenceCost.AddDuration(elapsed)
	m.stats.BytesCoherence += bytes
	if direct {
		m.stats.DirectCoherence++
	} else {
		m.stats.GuestCoherence++
	}
	if m.engine != nil && service > 0 && !sync {
		m.engine.ObserveBandwidth(m.pathKey(from, to), float64(bytes)/service.Seconds(), m.env.Now())
	}
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
	pr := m.getPush()
	pr.r, pr.from, pr.dom, pr.bytes, pr.recordTiming = r, from, dom, bytes, recordTiming
	pr.inf.version = r.version
	if m.pf != nil {
		pr.inf.node = m.pf.NewNode("svm:push", "svm:push-pending")
	}
	r.inflight[dom] = &pr.inf
	m.stats.CoherencePushes++
	m.stats.CoherenceBatches++ // unbatched: every push is its own transaction
	pr.stage = pushBegin
	m.env.After(0, pr.step)
}

// pushRec is one unbatched coherence push, run as a callback chain
// (DESIGN.md §5): the coherence fixed cost, the route copy, the bandwidth
// observation, then completePush. It also holds the region's in-flight
// entry for the push, and the chain charges the push's profiler node with
// the record as its key. Each Manager recycles its records, so a push
// allocates nothing. A reader parked on the entry may resume after the
// record is reused: it takes what it needs (the node) before it parks.
type pushRec struct {
	m            *Manager
	inf          inflightFetch
	r            *Region
	from, dom    *hostsim.Domain
	bytes        hostsim.Bytes
	recordTiming bool

	step  func() // pr.run, bound once per record
	stage int
	start time.Duration
	asp   obs.AsyncSpan
	copy  hostsim.RouteCopy
	next  *pushRec // free-list link
}

// The stages of a push chain.
const (
	pushBegin  = iota // open the span, bind the node, sleep the fixed cost
	pushFixed         // fixed cost paid: start the route copy
	pushCopied        // copy landed: book it and complete the push
)

// getPush recycles or allocates a push record, its done event armed.
func (m *Manager) getPush() *pushRec {
	pr := m.freePush
	if pr == nil {
		pr = &pushRec{m: m, inf: inflightFetch{done: *sim.NewEvent(m.env)}}
		pr.step = pr.run
		return pr
	}
	m.freePush = pr.next
	pr.next = nil
	pr.inf.done.Reset()
	return pr
}

// run advances the push until it must wait; the wait's event calls it
// again.
func (pr *pushRec) run() {
	m := pr.m
	switch pr.stage {
	case pushBegin:
		if m.tr != nil {
			pr.asp = m.tr.BeginAsync(m.prefTk, "push:"+pr.from.Name+"->"+pr.dom.Name)
		}
		if m.pf != nil {
			m.pf.Bind(pr, pr.inf.node)
		}
		pr.start = m.env.Now()
		pr.stage = pushFixed
		if m.cfg.CoherenceFixedCost > 0 && !m.env.SleepFunc(m.cfg.CoherenceFixedCost, pr.step) {
			return
		}
		fallthrough
	case pushFixed:
		if m.cfg.CoherenceFixedCost > 0 && m.pf != nil {
			m.pf.Charge(pr, "svm:coherence-fixed", pr.start)
		}
		pr.stage = pushCopied
		if !pr.copy.Start(m.mach, pr, pr.from, pr.dom, pr.bytes, pr.step) {
			return
		}
		fallthrough
	case pushCopied:
		elapsed := m.env.Now() - pr.start
		m.noteCoherence(pr.from, pr.dom, pr.bytes, true, false, elapsed, pr.copy.Service())
		if m.tr != nil {
			m.tr.EndAsync(m.prefTk, pr.asp)
		}
		if m.pf != nil {
			m.pf.Finish(pr.inf.node)
			m.pf.Bind(pr, nil)
		}
		m.completePush(pr.r, pr.dom, pr.inf.version, pr.bytes, pr.recordTiming, elapsed, &pr.inf)
		pr.r, pr.from, pr.dom, pr.inf.node = nil, nil, nil, nil
		pr.next = m.freePush
		m.freePush = pr
	}
}

// completePush installs one finished push: the copy lands only if the
// version is still current, the inflight entry is retired, and waiters are
// woken. Shared by the unbatched push chain and the batch proc.
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
		pwStart := p.Now()
		node := inf.node // a push record can be reused before p resumes
		inf.done.Wait(p)
		if m.pf != nil {
			m.pf.Wait(p, "svm:prefetch-wait", pwStart, node)
		}
		if r.HasCurrentCopy(acc.Domain) {
			r.delivered[acc.Domain] = false
			return
		}
	}
	m.demandFetch(p, r, acc, bytes, true)
}
