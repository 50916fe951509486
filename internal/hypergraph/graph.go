// Package hypergraph implements the twin hypergraphs of vSoC's SVM Manager
// (§3.2): two directed hypergraphs modeling the data flows of virtual and
// physical devices, plus a region table, indexed by region ID, mapping SVM
// regions to the hyperedge pair describing their flow.
//
// Nodes are devices (known at emulator startup); hyperedges are data flows
// discovered at run time. A hyperedge may have multiple destinations — e.g.
// a camera write read by both the ISP and the GPU — which is why ordinary
// edges do not suffice. Data flows and SVM regions are one-to-many: a
// buffered pipeline's chain of regions all map to the same hyperedge, which
// is what gives new regions zero-shot predictions (§3.3).
//
// The structures are plain deterministic containers — iteration follows
// insertion order, nothing hashes on addresses — so prediction, and
// everything downstream of it, is reproducible across runs. The access path
// reaches them without hashing: the region table and each edge's series
// are indexed arrays, and a FlowMemo resolves a region's repeating flow
// without building its key.
package hypergraph

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// Stat names one of an edge's smoothed series: the flow quantities the
// prefetch engine forecasts from (§3.3).
type Stat int

const (
	// StatSlackMS is the cross-device slack interval in milliseconds, on
	// both layers.
	StatSlackMS Stat = iota
	// StatSizeBytes is the dirty-region size, on the physical layer.
	StatSizeBytes
	// StatPrefetchMS is the achieved prefetch duration in milliseconds, on
	// the physical layer.
	StatPrefetchMS
	numStats
)

// NodeID identifies a device node. Virtual and physical graphs use
// independent ID spaces.
type NodeID int

// EdgeKey canonically identifies a hyperedge by its source and destination
// node sets: the sorted, duplicate-free decimal IDs of each, as in
// "3,12->7,10".
type EdgeKey string

// setArray and keyArray size the stack buffers an edge lookup canonicalizes
// into. The SVM manager's sets hold one to three devices; larger sets and
// longer keys spill to the heap.
const (
	setArray = 8
	keyArray = 64
)

// InsertNode adds id to set, which must be sorted and duplicate-free, and
// returns the result: set itself when id is already present, otherwise set
// with id appended in sorted position (in place when capacity allows).
func InsertNode(set []NodeID, id NodeID) []NodeID {
	i := len(set)
	for i > 0 && set[i-1] > id {
		i--
	}
	if i > 0 && set[i-1] == id {
		return set
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = id
	return set
}

// appendSet inserts every id into the canonical set dst.
func appendSet(dst, ids []NodeID) []NodeID {
	for _, id := range ids {
		dst = InsertNode(dst, id)
	}
	return dst
}

// appendKey appends the key text of the canonical sets s and d to buf.
func appendKey(buf []byte, s, d []NodeID) []byte {
	for i, id := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	buf = append(buf, "->"...)
	for i, id := range d {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	return buf
}

// Edge is one directed hyperedge: a data flow from the source device set to
// the destination device set, carrying the per-flow statistics used by the
// prefetch engine. The virtual layer records high-level flow properties
// (slack intervals); the physical layer records transfer properties (sizes,
// bandwidths, prefetch durations).
type Edge struct {
	Key     EdgeKey
	Sources []NodeID
	Dests   []NodeID

	// Uses counts accesses attributed to this flow.
	Uses int64
	// LastUseAt is the virtual time of the last attribution.
	LastUseAt time.Duration

	// Smoothed per-flow series, one per Stat, with the paper's alpha. A
	// series counts as observed once it is warm.
	series [numStats]metrics.EWMA
}

// Observe folds an observation into one smoothed series.
func (e *Edge) Observe(stat Stat, v float64) {
	e.series[stat].Observe(v)
}

// Forecast returns the smoothed forecast of one series and whether any
// observation exists.
func (e *Edge) Forecast(stat Stat) (float64, bool) {
	s := &e.series[stat]
	if !s.Warm() {
		return 0, false
	}
	return s.Value(), true
}

// observedSeries counts the series with at least one observation.
func (e *Edge) observedSeries() int {
	n := 0
	for i := range e.series {
		if e.series[i].Warm() {
			n++
		}
	}
	return n
}

// Touch records an attribution at time t.
func (e *Edge) Touch(t time.Duration) {
	e.Uses++
	e.LastUseAt = t
}

func (e *Edge) String() string { return string(e.Key) }

// Graph is one directed hypergraph layer. Nodes are registered at startup
// (they are "known at compile time" in the paper); edges are discovered
// dynamically.
type Graph struct {
	Name  string
	nodes map[NodeID]string
	edges map[EdgeKey]*Edge
	// bySource indexes edges by each source node for flow lookup.
	bySource map[NodeID][]*Edge
}

// New returns an empty graph layer.
func New(name string) *Graph {
	return &Graph{
		Name:     name,
		nodes:    make(map[NodeID]string),
		edges:    make(map[EdgeKey]*Edge),
		bySource: make(map[NodeID][]*Edge),
	}
}

// AddNode registers a device node.
func (g *Graph) AddNode(id NodeID, name string) {
	g.nodes[id] = name
}

// NodeName returns the registered name, or "?" for unknown nodes.
func (g *Graph) NodeName(id NodeID) string {
	if n, ok := g.nodes[id]; ok {
		return n
	}
	return "?"
}

// NumEdges returns the discovered edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge finds or creates the hyperedge for the given source and destination
// sets. The sets are canonicalized (sorted, deduplicated), so argument
// order never creates duplicate edges. Unregistered nodes panic: the node
// sets are fixed at startup. Finding an existing edge allocates nothing;
// only a new edge allocates its key and copies of its node sets.
func (g *Graph) Edge(sources, dests []NodeID) *Edge {
	var sa, da [setArray]NodeID
	var ka [keyArray]byte
	s, d := appendSet(sa[:0], sources), appendSet(da[:0], dests)
	key := appendKey(ka[:0], s, d)
	if e, ok := g.edges[EdgeKey(key)]; ok {
		return e
	}
	for _, id := range s {
		if _, ok := g.nodes[id]; !ok {
			panic(fmt.Sprintf("hypergraph: unknown source node %d in %s", id, g.Name))
		}
	}
	for _, id := range d {
		if _, ok := g.nodes[id]; !ok {
			panic(fmt.Sprintf("hypergraph: unknown dest node %d in %s", id, g.Name))
		}
	}
	e := &Edge{
		Key:     EdgeKey(key),
		Sources: append([]NodeID(nil), s...),
		Dests:   append([]NodeID(nil), d...),
	}
	for i := range e.series {
		e.series[i] = *metrics.NewEWMA(metrics.DefaultAlpha)
	}
	g.edges[e.Key] = e
	for _, id := range e.Sources {
		g.bySource[id] = append(g.bySource[id], e)
	}
	return e
}

// FlowMemo remembers, per destination-set size up to three (the SVM
// manager's reader sets hold one to three devices), the last single-source
// edge FlowEdge resolved to. A region's reader set grows the same way
// generation after generation, so one memo per region and layer turns the
// repeat lookups into a few integer compares. The zero value is ready; a
// remembered edge stays valid because a graph never drops an edge.
type FlowMemo [3]*Edge

// FlowEdge returns Edge({src}, dests), from memo when dests (in canonical
// order) and src match the edge remembered for dests' size.
func (g *Graph) FlowEdge(memo *FlowMemo, src NodeID, dests []NodeID) *Edge {
	n := len(dests)
	if n == 0 || n > len(memo) {
		return g.Edge([]NodeID{src}, dests)
	}
	if e := memo[n-1]; e != nil && e.Sources[0] == src && slices.Equal(e.Dests, dests) {
		return e
	}
	e := g.Edge([]NodeID{src}, dests)
	memo[n-1] = e
	return e
}

// Edges returns all edges in deterministic key order.
func (g *Graph) Edges() []*Edge {
	keys := make([]string, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := make([]*Edge, len(keys))
	for i, k := range keys {
		out[i] = g.edges[EdgeKey(k)]
	}
	return out
}

// HottestFrom returns the most recently used edge sourced at id, preferring
// higher use counts on ties — the flow a fresh region most likely belongs
// to (zero-shot prediction, §3.3).
func (g *Graph) HottestFrom(id NodeID) (*Edge, bool) {
	var best *Edge
	for _, e := range g.bySource[id] {
		if best == nil || e.LastUseAt > best.LastUseAt ||
			(e.LastUseAt == best.LastUseAt && e.Uses > best.Uses) {
			best = e
		}
	}
	return best, best != nil
}
