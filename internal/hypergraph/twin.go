package hypergraph

// Mapping ties one SVM region to its flow in each layer.
type Mapping struct {
	Virtual  *Edge
	Physical *Edge
}

// Twin is the two-layer structure of §3.2: a virtual-device hypergraph, a
// physical-device hypergraph, and the region table in between mapping SVM
// region IDs to the hyperedges describing their data flow. The two layers
// exist because virtual and physical devices are not one-to-one: a virtual
// codec may fall back to CPU software decode, and virtual GPU + display may
// both land on the one physical GPU. The table is a slice indexed by region
// ID, since the SVM manager hands IDs out densely; the zero Mapping marks an
// unmapped region.
type Twin struct {
	Virtual  *Graph
	Physical *Graph
	regions  []Mapping
	mapped   int // regions with a mapping
}

// NewTwin returns twin hypergraphs with empty layers.
func NewTwin() *Twin {
	return &Twin{Virtual: New("virtual"), Physical: New("physical")}
}

// Map associates an SVM region with its virtual and physical flow edges,
// replacing any previous mapping (mappings are "dynamically updated when
// SVM accesses are processed by the SVM Manager"). Mapping the zero
// Mapping unmaps the region.
func (t *Twin) Map(region uint64, m Mapping) {
	if m == (Mapping{}) {
		t.Unmap(region)
		return
	}
	for region >= uint64(len(t.regions)) {
		t.regions = append(t.regions, Mapping{})
	}
	if t.regions[region] == (Mapping{}) {
		t.mapped++
	}
	t.regions[region] = m
}

// Lookup returns the region's mapping.
func (t *Twin) Lookup(region uint64) (Mapping, bool) {
	if region >= uint64(len(t.regions)) || t.regions[region] == (Mapping{}) {
		return Mapping{}, false
	}
	return t.regions[region], true
}

// Unmap removes a region (called when the region is freed).
func (t *Twin) Unmap(region uint64) {
	if region < uint64(len(t.regions)) && t.regions[region] != (Mapping{}) {
		t.regions[region] = Mapping{}
		t.mapped--
	}
}

// MemoryFootprint estimates the resident bytes of the twin hypergraphs, the
// quantity the paper bounds at 3.1 MiB (§5.2). The estimate counts edges,
// their observed series, node tables, and mapped regions at nominal Go
// object sizes.
func (t *Twin) MemoryFootprint() int64 {
	const (
		edgeBytes   = 160 // Edge struct + key header
		seriesBytes = 48  // one observed EWMA series
		nodeBytes   = 32
		entryBytes  = 48 // region table entry
	)
	var total int64
	for _, g := range []*Graph{t.Virtual, t.Physical} {
		total += int64(len(g.nodes)) * nodeBytes
		for _, e := range g.edges {
			total += edgeBytes + int64(e.observedSeries())*seriesBytes +
				int64(len(e.Sources)+len(e.Dests))*8
		}
	}
	total += int64(t.mapped) * entryBytes
	return total
}
