// Package hypergraph implements the twin hypergraphs of vSoC's SVM Manager
// (§3.2): two directed hypergraphs modeling the data flows of virtual and
// physical devices, plus a hashtable mapping SVM regions to the hyperedge
// pair describing their flow.
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
// everything downstream of it, is reproducible across runs.
package hypergraph

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
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

	// Smoothed per-flow series, keyed by a caller-chosen stat name (the
	// prefetch engine uses "slack_ms", "size_bytes", "bandwidth_bps",
	// "prefetch_ms"). Series are created on first observation with the
	// paper's alpha.
	series map[string]*metrics.EWMA
}

// Observe folds an observation into the named smoothed series.
func (e *Edge) Observe(stat string, v float64) {
	s, ok := e.series[stat]
	if !ok {
		s = metrics.NewEWMA(metrics.DefaultAlpha)
		e.series[stat] = s
	}
	s.Observe(v)
}

// Forecast returns the smoothed forecast for the named series and whether
// any observation exists.
func (e *Edge) Forecast(stat string) (float64, bool) {
	s, ok := e.series[stat]
	if !ok || !s.Warm() {
		return 0, false
	}
	return s.Value(), true
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
		series:  make(map[string]*metrics.EWMA),
	}
	g.edges[e.Key] = e
	for _, id := range e.Sources {
		g.bySource[id] = append(g.bySource[id], e)
	}
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
