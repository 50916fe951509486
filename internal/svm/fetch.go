package svm

import (
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
// with the region version it is carrying so joins can detect staleness.
type chunkedFetch struct {
	ct      *hostsim.ChunkedTransfer
	version uint64
}

// chunkedDemandFetch brings acc.Domain current via a chunked transfer,
// returning once the chunks covering the accessed byte range have landed.
func (m *Manager) chunkedDemandFetch(p *sim.Proc, r *Region, acc Accessor, bytes hostsim.Bytes, direct bool) {
	m.stats.DemandFetches++
	if m.pf != nil {
		m.pf.BeginClass(p, "demand-fetch")
		defer m.pf.EndClass(p)
	}
	if m.coal != nil {
		// Latency-sensitive reader active toward this domain: collapse the
		// coalescing window, and dispatch any parked pushes now — they ride
		// the semaphore gaps between the fetch's chunk batches instead of
		// queueing behind a monolithic copy.
		m.coal.pressure(acc.Domain)
		m.coal.flush(acc.Domain)
	}
	if m.tr != nil {
		m.tr.Instant(m.trackFor(acc.Name), "demand-fetch")
	}
	for {
		if r.HasCurrentCopy(acc.Domain) {
			return
		}
		cf := r.chunked[acc.Domain]
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
		m.waitChunks(p, cf, bytes)
		if cf.version == r.version {
			// The chunks covering the accessed range hold the version the
			// reader asked for; the full-region landing (and the copies-map
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
	if cf := r.chunked[dom]; cf != nil && cf.version == r.version && cf.ct.Covers(bytes) {
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
	version := r.version
	size := r.Size
	ct := m.mach.CopyChunkedStart(from, dom, size, m.cfg.Fetch)
	cf := &chunkedFetch{ct: ct, version: version}
	if r.chunked == nil {
		r.chunked = make(map[*hostsim.Domain]*chunkedFetch)
	}
	r.chunked[dom] = cf
	m.stats.ChunkedFetches++
	ct.OnComplete(func() {
		elapsed := m.env.Now() - start
		m.stats.CoherenceCost.AddDuration(elapsed)
		m.stats.BytesCoherence += size
		if direct {
			m.stats.DirectCoherence++
		} else {
			m.stats.GuestCoherence++
		}
		if !r.freed && r.version == version {
			r.copies[dom] = version
		} else {
			m.stats.BytesWasted += size
		}
		if r.chunked[dom] == cf {
			delete(r.chunked, dom)
		}
	})
	return cf
}

// waitChunks parks the reader until the chunks covering its accessed range
// land, attributing the blocked time chunk by chunk so the demand-fetch
// class table separates DMA wire time from descriptor/interleave gaps.
func (m *Manager) waitChunks(p *sim.Proc, cf *chunkedFetch, bytes hostsim.Bytes) {
	waitStart := p.Now()
	cf.ct.WaitRange(p, bytes)
	if m.pf != nil {
		cf.ct.ChargeWait(p, waitStart, p.Now())
	}
}
