package svm

import (
	"slices"
	"testing"

	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// TestWarmReadFlowAllocatesNothing: once a flow's hyperedges exist, folding
// another generation's first cross-device reader into them allocates
// nothing. (The slack sample list grows by doubling; 1000 runs average
// that out.)
func TestWarmReadFlowAllocatesNothing(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(hostsim.MiB)
	runPipeline(t, rg, r, 3, 20*ms)
	allocs := testing.AllocsPerRun(1000, func() {
		// What a write commit does to the reader sets.
		r.genVirtuals, r.genPhysicals = r.genVirtuals[:0], r.genPhysicals[:0]
		rg.m.trackReadFlow(r, rg.gpu, r.Size, rg.env.Now())
	})
	if allocs != 0 {
		t.Fatalf("warm cross-device read allocates %v times in trackReadFlow, want 0", allocs)
	}
}

// TestReaderSetsCanonicalPerGeneration: repeated reads by one accessor
// leave one entry in each reader set, the sets stay sorted, and a write
// empties them for the next generation.
func TestReaderSetsCanonicalPerGeneration(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(hostsim.MiB)
	var afterReads, afterWrite [2][]hypergraph.NodeID
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		p.Sleep(5 * ms)
		for i := 0; i < 3; i++ {
			rg.read(t, p, r.ID, rg.gpu)
		}
		rg.read(t, p, r.ID, rg.cpu)
		rg.read(t, p, r.ID, rg.gpu)
		afterReads = [2][]hypergraph.NodeID{slices.Clone(r.genVirtuals), slices.Clone(r.genPhysicals)}
		rg.write(t, p, r.ID, rg.codec)
		afterWrite = [2][]hypergraph.NodeID{r.genVirtuals, r.genPhysicals}
	})
	rg.env.Run()
	if want := []hypergraph.NodeID{vCPU, vGPU}; !slices.Equal(afterReads[0], want) {
		t.Fatalf("virtual reader set = %v, want %v", afterReads[0], want)
	}
	if want := []hypergraph.NodeID{pCPU, pGPU}; !slices.Equal(afterReads[1], want) {
		t.Fatalf("physical reader set = %v, want %v", afterReads[1], want)
	}
	if len(afterWrite[0]) != 0 || len(afterWrite[1]) != 0 {
		t.Fatalf("reader sets after write = %v, want empty", afterWrite)
	}
	m, ok := rg.m.Twin().Lookup(uint64(r.ID))
	if !ok || !slices.Equal(m.Virtual.Dests, afterReads[0]) || !slices.Equal(m.Physical.Dests, afterReads[1]) {
		t.Fatalf("mapped flow = %v / %v, want the generation's reader sets", m.Virtual, m.Physical)
	}
}

// TestPredictCompensationAllocatesNothing: the guest driver's per-write
// prediction query builds its reader set on the stack.
func TestPredictCompensationAllocatesNothing(t *testing.T) {
	rg := newRig(t, KindPrefetch)
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	runPipeline(t, rg, r, 5, ms)
	if e := rg.m.Engine(); e.Suspended(rg.env.Now()) {
		t.Fatal("prefetch suspended: the query would not predict")
	} else if _, ok := e.Predict(uint64(r.ID), pCodec, rg.env.Now(), nil); !ok {
		t.Fatal("warm flow should be predictable")
	}
	allocs := testing.AllocsPerRun(100, func() {
		rg.m.PredictCompensation(r.ID, rg.codec)
	})
	if allocs != 0 {
		t.Fatalf("PredictCompensation allocates %v times, want 0", allocs)
	}
}
