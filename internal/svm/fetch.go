package svm

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
)

// This file is the SVM half of the chunked demand-fetch pipeline
// (DESIGN.md §11). With Config.Fetch enabled, demandFetch drives the copy as
// a chunked, DMA-promoted transfer and overlaps it with access commit: the
// reader unblocks as soon as the chunks covering its accessed range land,
// not when the whole region does, and a second reader toward the same domain
// joins the running transfer instead of re-driving it. With Fetch disabled
// none of this code runs and the monolithic synchronous path is untouched.

// chunkedFetch is one running chunked demand fetch toward a domain, tagged
// with the region version it is carrying so joins can detect staleness. It
// holds what the completion callback books; done is cf.complete, bound once
// per record. Each Manager recycles its records when their transfer
// completes, which can be before a reader parked in it resumes: a reader
// takes the version and the transfer before it parks (the transfer itself
// is kept until its last reader resumes).
type chunkedFetch struct {
	m       *Manager
	ct      *hostsim.ChunkedTransfer
	version uint64
	r       *Region
	dom     *hostsim.Domain
	start   time.Duration
	direct  bool
	done    func()
	next    *chunkedFetch // free-list link
}

// chunkedDemandFetch brings acc.Domain current via a chunked transfer,
// returning once the chunks covering the accessed byte range have landed.
func (m *Manager) chunkedDemandFetch(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes, direct bool) {
	m.stats.DemandFetches++
	if m.pf != nil {
		m.pf.BeginClass(p, "demand-fetch")
		defer m.pf.EndClass(p)
	}
	if m.tr != nil {
		m.tr.Instant(m.trackFor(acc.Name), "demand-fetch")
	}
	for {
		if r.HasCurrentCopy(acc.Domain) {
			return
		}
		cf := r.chunked[acc.Domain.ID]
		if cf == nil || cf.version != r.version || !cf.ct.Covers(bytes) {
			// No transfer, a stale one, or one too short: a reader must not
			// join a transfer whose tail stops before its accessed range —
			// WaitRange clamps to the transfer's end, so the joiner would
			// unblock with its suffix chunks never driven (silently missing
			// data). Drive a fresh full-region fetch instead.
			cf = m.startChunkedFetch(p, r, acc.Domain, direct, bytes)
		} else {
			m.stats.FetchJoins++
		}
		// WaitRange parks until the chunks covering the accessed range land
		// and charges the blocked time chunk by chunk, so the demand-fetch
		// class table separates DMA wire time from descriptor/interleave
		// gaps.
		version := cf.version
		cf.ct.WaitRange(p, bytes)
		if version == r.version {
			// The chunks covering the accessed range hold the version the
			// reader asked for; the full-region landing (and the copies
			// install) may still be in flight behind us.
			return
		}
		// The region was rewritten mid-fetch: the landed chunks are stale.
		// Loop and drive a fresh fetch for the new version.
	}
}

// startChunkedFetch pays the coherence fixed cost and starts the chunked
// transfer, registering it on the region so later readers join it. bytes is
// the caller's accessed range: a racing transfer is only joined when it
// covers that range.
func (m *Manager) startChunkedFetch(p *sim.Proc, r *Region, dom *hostsim.Domain, direct bool, bytes hostsim.Bytes) *chunkedFetch {
	start := p.Now()
	if m.cfg.CoherenceFixedCost > 0 {
		p.Sleep(m.cfg.CoherenceFixedCost)
		if m.pf != nil {
			m.pf.Charge(p, "svm:coherence-fixed", start)
		}
	}
	// A racing reader may have started the fetch while we slept through the
	// fixed cost; join it rather than double-driving the transfer — but only
	// if it covers our accessed range (see chunkedDemandFetch).
	if cf := r.chunked[dom.ID]; cf != nil && cf.version == r.version && cf.ct.Covers(bytes) {
		m.stats.FetchJoins++
		return cf
	}
	// Source and version are sampled after the sleep: a write committing
	// during the fixed cost moves the owner, and we must fetch what is
	// current now.
	from := r.owner
	if !direct {
		from = m.mach.Guest
	}
	cf := m.freeFetch
	if cf == nil {
		cf = &chunkedFetch{m: m}
		cf.done = cf.complete
	} else {
		m.freeFetch = cf.next
		cf.next = nil
	}
	cf.r, cf.dom, cf.start, cf.direct, cf.version = r, dom, start, direct, r.version
	cf.ct = m.mach.CopyChunkedStart(from, dom, r.Size, m.cfg.Fetch)
	r.chunked[dom.ID] = cf
	m.stats.ChunkedFetches++
	cf.ct.OnComplete(cf.done)
	return cf
}

// complete books a fetch whose last chunk landed: its coherence cost, and
// the copy it installs, unless the region moved on (then its bytes are
// waste). It retires the region's entry and recycles the record.
func (cf *chunkedFetch) complete() {
	m, r, dom := cf.m, cf.r, cf.dom
	m.stats.CoherenceCost.AddDuration(m.env.Now() - cf.start)
	m.stats.BytesCoherence += r.Size
	if cf.direct {
		m.stats.DirectCoherence++
	} else {
		m.stats.GuestCoherence++
	}
	if !r.freed && r.version == cf.version {
		r.copies[dom.ID] = cf.version
	} else {
		m.stats.BytesWasted += r.Size
	}
	if r.chunked[dom.ID] == cf {
		r.chunked[dom.ID] = nil
	}
	cf.ct, cf.r, cf.dom = nil, nil, nil
	cf.next = m.freeFetch
	m.freeFetch = cf
}
