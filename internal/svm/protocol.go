package svm

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/obs"
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
func (m *Manager) copyCoherence(p *sim.Proc, from, to *hostsim.Domain, bytes hostsim.Bytes, direct, sync bool) {
	start := p.Now()
	if m.cfg.CoherenceFixedCost > 0 {
		p.Sleep(m.cfg.CoherenceFixedCost)
		if m.pf != nil {
			m.pf.Charge(p, "svm:coherence-fixed", start)
		}
	}
	_, service := m.mach.CopyDetailed(p, from, to, bytes, sync)
	m.noteCoherence(from, to, bytes, direct, sync, p.Now()-start, service)
}

// noteCoherence books one finished coherence copy, from a process, a push
// chain or a chunked fetch's completion: its cost, bytes and path class,
// and the bandwidth it saw. Only DMA copies feed the bandwidth-congestion
// signal — demand fetches, chunked ones included, are sync: slow by mode,
// not by congestion — and only pure wire time counts, so that fixed
// scheduling cost and incidental queueing on small copies do not
// masquerade as congestion.
func (m *Manager) noteCoherence(from, to *hostsim.Domain, bytes hostsim.Bytes, direct, sync bool, elapsed, service time.Duration) {
	m.stats.CoherenceCost.AddDuration(elapsed)
	m.stats.BytesCoherence += bytes
	if direct {
		m.stats.DirectCoherence++
	} else {
		m.stats.GuestCoherence++
	}
	if m.engine != nil && service > 0 && !sync {
		m.engine.ObserveBandwidth(from, to, float64(bytes)/service.Seconds(), m.env.Now())
	}
}

// pathName returns a push span's "push:from->to" name, built once per
// domain pair. Only called with a non-nil tracer.
func (m *Manager) pathName(from, to *hostsim.Domain) string {
	s := &m.pathNames[from.ID][to.ID]
	if *s == "" {
		*s = "push:" + from.Name + "->" + to.Name
	}
	return *s
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
	if m.cfg.Fetch.Enabled() {
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
	if m.tr != nil {
		m.tr.Instant(m.trackFor(acc.Name), "demand-fetch")
	}
	from := r.owner
	if !direct {
		from = m.mach.Guest
	}
	m.copyCoherence(p, from, acc.Domain, bytes, direct, true)
	r.copies[acc.Domain.ID] = r.version
}

// asyncPush starts an asynchronous copy of the current version toward dom,
// shared by the prefetch and broadcast protocols. Completion installs the
// copy only if the version is still current; otherwise the bytes are waste.
func (m *Manager) asyncPush(r *Region, from, dom *hostsim.Domain, bytes hostsim.Bytes, recordTiming bool) {
	if r.inflight[dom.ID] != nil {
		return // a push toward dom is already running
	}
	pr := m.getPush()
	pr.r, pr.from, pr.dom, pr.bytes, pr.recordTiming = r, from, dom, bytes, recordTiming
	pr.inf.version = r.version
	if m.pf != nil {
		pr.inf.node = m.pf.NewNode("svm:push", "svm:push-pending")
	}
	r.inflight[dom.ID] = &pr.inf
	m.stats.CoherenceBatches++
	pr.stage = pushBegin
	m.env.After(0, pr.step)
}

// pushRec is one coherence push, run as a callback chain (DESIGN.md §5):
// the coherence fixed cost, the route copy, the bandwidth observation, then
// the install of the landed copy. It also holds the region's in-flight
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
			pr.asp = m.tr.BeginAsync(m.prefTk, m.pathName(pr.from, pr.dom))
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
		// Install the landed copy only if its version is still current,
		// retire the in-flight entry and wake its waiters.
		r, dom := pr.r, pr.dom
		if !r.freed && r.version == pr.inf.version {
			r.copies[dom.ID] = pr.inf.version
			r.delivered[dom.ID] = true
			if pr.recordTiming {
				if mp, ok := m.twin.Lookup(uint64(r.ID)); ok && mp.Physical != nil {
					mp.Physical.Observe(hypergraph.StatPrefetchMS,
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
			m.stats.BytesWasted += pr.bytes
		}
		if r.inflight[dom.ID] == &pr.inf {
			r.inflight[dom.ID] = nil
		}
		pr.inf.done.Signal()
		pr.r, pr.from, pr.dom, pr.inf.node = nil, nil, nil, nil
		pr.next = m.freePush
		m.freePush = pr
	}
}

// awaitOrDemand is the read path shared by protocols with asynchronous
// pushes: consume an arrived copy, wait out an in-flight one, or fall back
// to a demand fetch.
func (m *Manager) awaitOrDemand(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes) {
	d := acc.Domain.ID
	if r.HasCurrentCopy(acc.Domain) {
		if r.delivered[d] {
			r.delivered[d] = false
			m.stats.PrefetchHits++
		}
		return
	}
	if inf := r.inflight[d]; inf != nil && inf.version == r.version {
		m.stats.PrefetchWaits++
		pwStart := p.Now()
		node := inf.node // a push record can be reused before p resumes
		inf.done.Wait(p)
		if m.pf != nil {
			m.pf.Wait(p, "svm:prefetch-wait", pwStart, node)
		}
		if r.HasCurrentCopy(acc.Domain) {
			r.delivered[d] = false
			return
		}
	}
	m.demandFetch(p, r, acc, bytes, true)
}
