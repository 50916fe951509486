package svm

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// Access is a handle on one open access to a region, created by
// BeginAccess and closed by End — the begin_access/end_access pair of the
// Fig. 3 interface. The access lives in a record its Manager recycles once
// End has run; the handle names the record and its generation, so End on
// any copy of an ended handle, or on the zero Access, returns
// ErrAccessEnded.
type Access struct {
	rec *accessRec
	gen uint64
}

// accessRec is the state of one open access.
type accessRec struct {
	m     *Manager
	gen   uint64
	r     *Region
	acc   Accessor
	usage Usage
	bytes hostsim.Bytes
	next  *accessRec // free-list link
}

// openAccess records a begun access in a recycled record.
func (m *Manager) openAccess(r *Region, acc Accessor, usage Usage, bytes hostsim.Bytes) Access {
	rec := m.freeAccess
	if rec == nil {
		rec = &accessRec{m: m}
	} else {
		m.freeAccess = rec.next
		rec.next = nil
	}
	rec.r, rec.acc, rec.usage, rec.bytes = r, acc, usage, bytes
	return Access{rec: rec, gen: rec.gen}
}

// EndInfo is returned by End. Compensation is how long the guest driver
// should block before returning control to the system, so the remaining
// asynchronous prefetch stays hidden (adaptive synchronism, §3.3). Guest
// drivers pace themselves with PredictCompensation before the commit; the
// benchmark's SVM micro-driver applies this value after it.
type EndInfo struct {
	Compensation time.Duration
}

// BeginAccess opens an access to region id by acc. bytes is the accessed
// (dirty) range; 0 means the whole region. For read usages the call blocks
// until acc's domain holds the current data — the blocking time is the
// access latency the paper measures.
func (m *Manager) BeginAccess(p *sim.Proc, id RegionID, acc Accessor, usage Usage, bytes hostsim.Bytes) (Access, error) {
	r, err := m.Region(id)
	if err != nil {
		return Access{}, err
	}
	if bytes == 0 {
		bytes = r.Size
	}
	if bytes < 0 || bytes > r.Size {
		return Access{}, ErrBadSize
	}
	start := p.Now()
	var asp obs.AsyncSpan
	var tk obs.Track
	if m.tr != nil {
		// Async rather than a complete span: several guest processes can
		// share one accessor name, so begin_access intervals on a track may
		// overlap.
		tk = m.trackFor(acc.Name)
		asp = m.tr.BeginAsync(tk, "begin_access")
	}
	m.materialize(r)
	r.noteDomain(acc.Domain)
	if m.cfg.AccessBaseCost > 0 {
		p.Sleep(m.cfg.AccessBaseCost)
		if m.pf != nil {
			m.pf.Charge(p, "svm:access-base", start)
		}
	}

	if usage.reads() && r.version > 0 {
		m.trackReadFlow(r, acc, bytes, start)
		m.proto.ensureReadable(p, r, acc, bytes)
	}

	if m.tr != nil {
		m.tr.EndAsync(tk, asp)
	}
	m.stats.AccessLatency.AddDuration(p.Now() - start)
	if acc.CPU {
		m.stats.HALAccessLatency.AddDuration(p.Now() - start)
	}
	if m.observer != nil {
		m.observer(start, acc, r.ID, bytes, usage, p.Now()-start)
	}
	m.stats.Accesses++
	if usage.reads() {
		m.stats.Reads++
	}
	if usage.writes() {
		m.stats.Writes++
	}
	return m.openAccess(r, acc, usage, bytes), nil
}

// materialize lazily commits the region's backing on first access (§3.2).
func (m *Manager) materialize(r *Region) {
	if r.materialized {
		return
	}
	r.materialized = true
	m.stats.RegionSizes.Add(float64(r.Size) / float64(hostsim.MiB))
}

// trackReadFlow updates the twin hypergraphs for a cross-device read: it
// folds the reader into the current generation's hyperedges, remaps the
// region, observes the slack interval, and scores the device prediction.
func (m *Manager) trackReadFlow(r *Region, acc Accessor, bytes hostsim.Bytes, readStart time.Duration) {
	if !r.hasWriter || acc.same(r.lastWriter) {
		return // reading own data: no cross-device flow
	}
	firstReader := len(r.genVirtuals) == 0

	// Score the device prediction once per generation, on the first
	// cross-device reader (§5.2's accuracy metric).
	if m.engine != nil && firstReader && !r.predChecked {
		r.predChecked = true
		if r.predValid {
			correct := false
			for _, n := range r.predReaders {
				if n == acc.Physical {
					correct = true
					break
				}
			}
			m.stats.PredTotal++
			if correct {
				m.stats.PredCorrect++
			}
			m.engine.RecordOutcome(correct, readStart)
		}
	}

	r.genVirtuals = hypergraph.InsertNode(r.genVirtuals, acc.Virtual)
	r.genPhysicals = hypergraph.InsertNode(r.genPhysicals, acc.Physical)
	vEdge := m.twin.Virtual.Edge(
		[]hypergraph.NodeID{r.lastWriter.Virtual}, r.genVirtuals)
	pEdge := m.twin.Physical.Edge(
		[]hypergraph.NodeID{r.lastWriter.Physical}, r.genPhysicals)
	m.twin.Map(uint64(r.ID), hypergraph.Mapping{Virtual: vEdge, Physical: pEdge})
	now := m.env.Now()
	vEdge.Touch(now)
	pEdge.Touch(now)
	pEdge.Observe(prefetch.StatSizeBytes, float64(bytes))

	if firstReader {
		slack := readStart - r.lastWriteEnd
		slackMS := float64(slack) / float64(time.Millisecond)
		vEdge.Observe(prefetch.StatSlackMS, slackMS)
		pEdge.Observe(prefetch.StatSlackMS, slackMS)
		m.stats.SlackIntervals.Add(slackMS)
		if r.predTimed {
			errMS := float64(slack-r.predSlack) / float64(time.Millisecond)
			if errMS < 0 {
				errMS = -errMS
			}
			m.stats.SlackError.Add(errMS)
		}
	}
}

// End closes the access. For writes it commits a new version, invalidates
// remote copies, and lets the protocol react (push, broadcast, or guest
// sync); the returned compensation is applied by the guest driver.
func (a Access) End(p *sim.Proc) (EndInfo, error) {
	rec := a.rec
	if rec == nil || rec.gen != a.gen {
		return EndInfo{}, ErrAccessEnded
	}
	m, r, acc, usage, bytes := rec.m, rec.r, rec.acc, rec.usage, rec.bytes
	// Retire the record before anything can block: End is the access's
	// last use of it, and a later BeginAccess may take it over.
	rec.gen++
	rec.r, rec.acc = nil, Accessor{}
	rec.next = m.freeAccess
	m.freeAccess = rec
	var info EndInfo
	if usage.writes() && r.freed {
		// The region was freed while the write was in flight: there is no
		// live version to commit into, so the data is gone. Surface the
		// use-after-free instead of silently dropping the commit, and keep
		// the never-landed bytes out of the useful-throughput numerator.
		return EndInfo{}, ErrFreed
	}
	if usage.writes() {
		var asp obs.AsyncSpan
		var tk obs.Track
		if m.tr != nil {
			tk = m.trackFor(acc.Name)
			asp = m.tr.BeginAsync(tk, "commit")
			defer func() { m.tr.EndAsync(tk, asp) }()
		}
		// Unconsumed pushed copies of the previous version are waste.
		for _, dom := range r.accessedDomains {
			if r.delivered[dom] && r.copies[dom] == r.version {
				m.stats.BytesWasted += bytes
			}
			delete(r.delivered, dom)
		}
		r.version++
		r.owner = acc.Domain
		clear(r.copies)
		r.copies[acc.Domain] = r.version
		r.hasWriter = true
		r.lastWriter = acc
		r.genVirtuals = r.genVirtuals[:0]
		r.genPhysicals = r.genPhysicals[:0]
		r.predChecked = false
		info.Compensation = m.proto.onWriteEnd(p, r, acc, bytes)
		r.lastWriteEnd = p.Now()
	}
	m.stats.BytesAccessed += bytes
	return info, nil
}
