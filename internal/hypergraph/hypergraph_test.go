package hypergraph

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func newTestGraph() *Graph {
	g := New("test")
	for i := NodeID(0); i < 6; i++ {
		g.AddNode(i, string(rune('A'+int(i))))
	}
	return g
}

func TestEdgeFindOrCreate(t *testing.T) {
	g := newTestGraph()
	e1 := g.Edge([]NodeID{0}, []NodeID{1, 2})
	e2 := g.Edge([]NodeID{0}, []NodeID{2, 1}) // different order, same sets
	if e1 != e2 {
		t.Fatal("canonicalization should dedupe edges")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestEdgeDedupesNodeSets(t *testing.T) {
	g := newTestGraph()
	e := g.Edge([]NodeID{0, 0}, []NodeID{1, 1, 2})
	if len(e.Sources) != 1 || len(e.Dests) != 2 {
		t.Fatalf("sets = %v -> %v, want deduped", e.Sources, e.Dests)
	}
}

func TestEdgeKeyText(t *testing.T) {
	// Multi-digit IDs, unsorted and duplicated: the key lists each set
	// sorted and deduplicated, in decimal.
	g := New("test")
	for _, id := range []NodeID{3, 7, 10, 12} {
		g.AddNode(id, "n")
	}
	e := g.Edge([]NodeID{12, 3, 12}, []NodeID{10, 7})
	if e.Key != "3,12->7,10" {
		t.Fatalf("Key = %q, want %q", e.Key, "3,12->7,10")
	}
	if got := g.Edge([]NodeID{3, 12}, []NodeID{7, 10, 7}); got != e || g.NumEdges() != 1 {
		t.Fatalf("Edge = %v with %d edges, want the same edge", got, g.NumEdges())
	}
}

func TestEdgeHitAllocatesNothing(t *testing.T) {
	g := newTestGraph()
	src, dst := []NodeID{2, 0, 2}, []NodeID{5, 1, 3, 1}
	e := g.Edge(src, dst)
	allocs := testing.AllocsPerRun(100, func() {
		if g.Edge(src, dst) != e {
			t.Fatal("hit returned a different edge")
		}
	})
	if allocs != 0 {
		t.Fatalf("edge hit allocates %v times, want 0", allocs)
	}
}

func TestQuickEdgeMatchesReference(t *testing.T) {
	// Node sets past the stack array spill to the heap; the edge's sets and
	// key still equal a sort-and-dedupe reference.
	g := New("test")
	for i := NodeID(0); i < 40; i++ {
		g.AddNode(i, "n")
	}
	// Every set holds the random nodes plus these setArray+1 distinct
	// ones, in descending order so each insertion shifts the set.
	spill := make([]NodeID, setArray+1)
	for i := range spill {
		spill[i] = NodeID(3 * (setArray - i))
	}
	set := func(raw []uint8) []NodeID {
		ids := make([]NodeID, 0, len(raw)+len(spill))
		for _, v := range raw {
			ids = append(ids, NodeID(v%40))
		}
		return append(ids, spill...)
	}
	ref := func(ids []NodeID) ([]NodeID, string) {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		ids = slices.Compact(ids)
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = strconv.Itoa(int(id))
		}
		return ids, strings.Join(parts, ",")
	}
	f := func(srcRaw, dstRaw []uint8) bool {
		src, dst := set(srcRaw), set(dstRaw)
		wantSrc, srcKey := ref(src)
		wantDst, dstKey := ref(dst)
		e := g.Edge(src, dst)
		return slices.Equal(e.Sources, wantSrc) && slices.Equal(e.Dests, wantDst) &&
			string(e.Key) == srcKey+"->"+dstKey
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownNodePanics(t *testing.T) {
	g := newTestGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for unregistered node")
		}
	}()
	g.Edge([]NodeID{99}, []NodeID{1})
}

func TestEdgesFromIndex(t *testing.T) {
	g := newTestGraph()
	g.Edge([]NodeID{0}, []NodeID{1})
	g.Edge([]NodeID{0}, []NodeID{2})
	g.Edge([]NodeID{1}, []NodeID{2})
	if got := len(g.bySource[0]); got != 2 {
		t.Fatalf("bySource[0] holds %d edges, want 2", got)
	}
	if got := len(g.bySource[2]); got != 0 {
		t.Fatalf("bySource[2] holds %d edges, want 0", got)
	}
}

func TestMultiSourceEdgeIndexedUnderEachSource(t *testing.T) {
	g := newTestGraph()
	g.Edge([]NodeID{0, 1}, []NodeID{2})
	if len(g.bySource[0]) != 1 || len(g.bySource[1]) != 1 {
		t.Fatal("multi-source edge should index under both sources")
	}
}

func TestHottestFromPrefersRecency(t *testing.T) {
	g := newTestGraph()
	old := g.Edge([]NodeID{0}, []NodeID{1})
	recent := g.Edge([]NodeID{0}, []NodeID{2})
	old.Touch(1 * time.Millisecond)
	old.Touch(2 * time.Millisecond)
	recent.Touch(5 * time.Millisecond)
	e, ok := g.HottestFrom(0)
	if !ok || e != recent {
		t.Fatalf("HottestFrom = %v, want the recently used edge", e)
	}
	if _, ok := g.HottestFrom(3); ok {
		t.Fatal("HottestFrom with no edges should report false")
	}
}

func TestForecastSeries(t *testing.T) {
	g := newTestGraph()
	e := g.Edge([]NodeID{0}, []NodeID{1})
	if _, ok := e.Forecast("slack_ms"); ok {
		t.Fatal("unobserved series should miss")
	}
	e.Observe("slack_ms", 16)
	e.Observe("slack_ms", 18)
	v, ok := e.Forecast("slack_ms")
	if !ok || v != 17 {
		t.Fatalf("Forecast = %v/%v, want 17/true", v, ok)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := newTestGraph()
	g.Edge([]NodeID{2}, []NodeID{3})
	g.Edge([]NodeID{0}, []NodeID{1})
	g.Edge([]NodeID{1}, []NodeID{2})
	a := g.Edges()
	b := g.Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Edges() order not deterministic")
		}
	}
}

func TestTwinMapping(t *testing.T) {
	tw := NewTwin()
	tw.Virtual.AddNode(0, "vcam")
	tw.Virtual.AddNode(1, "vgpu")
	tw.Physical.AddNode(0, "cam")
	tw.Physical.AddNode(1, "gpu")
	ve := tw.Virtual.Edge([]NodeID{0}, []NodeID{1})
	pe := tw.Physical.Edge([]NodeID{0}, []NodeID{1})
	tw.Map(42, Mapping{Virtual: ve, Physical: pe})
	m, ok := tw.Lookup(42)
	if !ok || m.Virtual != ve || m.Physical != pe {
		t.Fatal("mapping lookup failed")
	}
	tw.Unmap(42)
	if _, ok := tw.Lookup(42); ok {
		t.Fatal("unmapped region still resolves")
	}
}

func TestTwinRemapReplaces(t *testing.T) {
	tw := NewTwin()
	tw.Virtual.AddNode(0, "a")
	tw.Virtual.AddNode(1, "b")
	tw.Virtual.AddNode(2, "c")
	e1 := tw.Virtual.Edge([]NodeID{0}, []NodeID{1})
	e2 := tw.Virtual.Edge([]NodeID{0}, []NodeID{2})
	tw.Map(7, Mapping{Virtual: e1})
	tw.Map(7, Mapping{Virtual: e2})
	m, _ := tw.Lookup(7)
	if m.Virtual != e2 {
		t.Fatal("remap should replace mapping")
	}
	if len(tw.regions) != 1 {
		t.Fatalf("NumMapped = %d, want 1", len(tw.regions))
	}
}

func TestMemoryFootprintBounded(t *testing.T) {
	// A realistic population — a dozen devices, dozens of flows, a few
	// thousand live regions — must stay within the paper's 3.1 MiB bound.
	tw := NewTwin()
	for i := NodeID(0); i < 12; i++ {
		tw.Virtual.AddNode(i, "v")
		tw.Physical.AddNode(i, "p")
	}
	for i := NodeID(0); i < 11; i++ {
		ve := tw.Virtual.Edge([]NodeID{i}, []NodeID{i + 1})
		pe := tw.Physical.Edge([]NodeID{i}, []NodeID{i + 1})
		for _, s := range []string{"slack_ms", "size_bytes", "bandwidth_bps", "prefetch_ms"} {
			ve.Observe(s, 1)
			pe.Observe(s, 1)
		}
		for r := uint64(0); r < 500; r++ {
			tw.Map(uint64(i)*1000+r, Mapping{Virtual: ve, Physical: pe})
		}
	}
	fp := tw.MemoryFootprint()
	if fp <= 0 {
		t.Fatal("footprint should be positive")
	}
	if fp > 3100*1024 {
		t.Fatalf("footprint = %d bytes, exceeds the 3.1 MiB budget", fp)
	}
}

func TestQuickEdgeCanonicalization(t *testing.T) {
	// Any permutation/duplication of the same node sets yields one edge.
	g := newTestGraph()
	f := func(srcRaw, dstRaw []uint8) bool {
		if len(srcRaw) == 0 || len(dstRaw) == 0 {
			return true
		}
		src := make([]NodeID, len(srcRaw))
		for i, v := range srcRaw {
			src[i] = NodeID(v % 6)
		}
		dst := make([]NodeID, len(dstRaw))
		for i, v := range dstRaw {
			dst[i] = NodeID(v % 6)
		}
		e1 := g.Edge(src, dst)
		// Reverse both slices: same sets.
		for i, j := 0, len(src)-1; i < j; i, j = i+1, j-1 {
			src[i], src[j] = src[j], src[i]
		}
		for i, j := 0, len(dst)-1; i < j; i, j = i+1, j-1 {
			dst[i], dst[j] = dst[j], dst[i]
		}
		return g.Edge(src, dst) == e1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// edgeSink keeps BenchmarkEdgeHit's result live.
var edgeSink *Edge

// BenchmarkEdgeHit measures the per-read flow lookup of the SVM access path:
// an existing edge found from unsorted, duplicated node sets.
func BenchmarkEdgeHit(b *testing.B) {
	g := newTestGraph()
	src, dst := []NodeID{2}, []NodeID{4, 1, 4}
	g.Edge(src, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edgeSink = g.Edge(src, dst)
	}
}
