package svm

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/prof"
	"repro/internal/sim"
)

// inflightFetch tracks one asynchronous copy (prefetch or broadcast push)
// toward a domain.
type inflightFetch struct {
	done    sim.Event // by value: one allocation per push, not two
	version uint64
	// node is the push's wait-for graph vertex (the batch's vertex when
	// the push rides a coalesced batch); nil when profiling is off.
	node *prof.Node
}

// Region is one SVM region: a handle-addressed buffer whose latest contents
// live in the owner domain, with possibly stale copies elsewhere.
type Region struct {
	ID   RegionID
	Size hostsim.Bytes

	// version counts committed writes; owner is the domain holding the
	// newest data. copies maps each domain to the version it holds.
	version uint64
	owner   *hostsim.Domain
	copies  map[*hostsim.Domain]uint64

	// inflight tracks asynchronous copies headed to each domain;
	// delivered marks domains whose current-version copy arrived via
	// prefetch/broadcast and has not yet been read (for waste accounting).
	inflight  map[*hostsim.Domain]*inflightFetch
	delivered map[*hostsim.Domain]bool

	// chunked tracks the running chunked demand fetch toward each domain,
	// so a second reader joins the in-flight transfer instead of re-driving
	// it (DESIGN.md §11). Nil until the first chunked fetch — regions on the
	// monolithic path carry no extra state.
	chunked map[*hostsim.Domain]*chunkedFetch

	// materialized is set on first access (lazy allocation, §3.2).
	materialized bool

	// accessedDomains lists every domain that ever touched the region, in
	// first-touch order (deterministic iteration for broadcast and waste
	// accounting).
	accessedDomains []*hostsim.Domain

	// Flow tracking: the writer of the current generation and the virtual
	// and physical node sets (sorted, duplicate-free) of the cross-device
	// readers observed since, used to build hyperedges. A write truncates
	// the sets and keeps their backing arrays.
	hasWriter    bool
	lastWriter   Accessor
	lastWriteEnd time.Duration
	genVirtuals  []hypergraph.NodeID
	genPhysicals []hypergraph.NodeID

	// Prediction bookkeeping for the current generation.
	predValid   bool
	predReaders []hypergraph.NodeID
	predTimed   bool
	predSlack   time.Duration
	predPf      time.Duration
	predChecked bool

	freed bool
}

// noteDomain records a domain touching the region (first-touch order).
func (r *Region) noteDomain(d *hostsim.Domain) {
	for _, x := range r.accessedDomains {
		if x == d {
			return
		}
	}
	r.accessedDomains = append(r.accessedDomains, d)
}

// HasCurrentCopy reports whether the domain holds the latest version.
func (r *Region) HasCurrentCopy(d *hostsim.Domain) bool {
	return r.version > 0 && r.copies[d] == r.version
}
