package hypergraph

// Mapping ties one SVM region to its flow in each layer.
type Mapping struct {
	Virtual  *Edge
	Physical *Edge
}

// Twin is the two-layer structure of §3.2: a virtual-device hypergraph, a
// physical-device hypergraph, and the hashtable in between mapping SVM
// region IDs to the hyperedges describing their data flow. The two layers
// exist because virtual and physical devices are not one-to-one: a virtual
// codec may fall back to CPU software decode, and virtual GPU + display may
// both land on the one physical GPU.
type Twin struct {
	Virtual  *Graph
	Physical *Graph
	regions  map[uint64]Mapping
}

// NewTwin returns twin hypergraphs with empty layers.
func NewTwin() *Twin {
	return &Twin{
		Virtual:  New("virtual"),
		Physical: New("physical"),
		regions:  make(map[uint64]Mapping),
	}
}

// Map associates an SVM region with its virtual and physical flow edges,
// replacing any previous mapping (mappings are "dynamically updated when
// SVM accesses are processed by the SVM Manager").
func (t *Twin) Map(region uint64, m Mapping) { t.regions[region] = m }

// Lookup returns the region's mapping.
func (t *Twin) Lookup(region uint64) (Mapping, bool) {
	m, ok := t.regions[region]
	return m, ok
}

// Unmap removes a region (called when the region is freed).
func (t *Twin) Unmap(region uint64) { delete(t.regions, region) }

// MemoryFootprint estimates the resident bytes of the twin hypergraphs, the
// quantity the paper bounds at 3.1 MiB (§5.2). The estimate counts edges,
// their series, node tables, and hashtable entries at nominal Go object
// sizes.
func (t *Twin) MemoryFootprint() int64 {
	const (
		edgeBytes   = 160 // Edge struct + key header
		seriesBytes = 48  // EWMA + map entry
		nodeBytes   = 32
		entryBytes  = 48 // region hashtable entry
	)
	var total int64
	for _, g := range []*Graph{t.Virtual, t.Physical} {
		total += int64(len(g.nodes)) * nodeBytes
		for _, e := range g.edges {
			total += edgeBytes + int64(len(e.series))*seriesBytes +
				int64(len(e.Sources)+len(e.Dests))*8
		}
	}
	total += int64(len(t.regions)) * entryBytes
	return total
}
