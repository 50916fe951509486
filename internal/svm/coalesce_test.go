package svm

import (
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/virtio"
)

func newBatchRig(t *testing.T, kind Kind) *rig {
	cfg := DefaultConfig()
	cfg.Kind = kind
	cfg.Batch = virtio.EnabledBatch()
	return newRigCfg(t, cfg)
}

// TestSingleElementBatchCostsExactlyUnbatched pins the no-header-overhead
// promise: a batch whose window expires with a single element charges
// exactly what the unbatched push would — same CoherenceFixedCost, same copy
// time, nothing extra for having opened a window.
//
// A single producer with slack much longer than the window means every push
// after warm-up parks alone in a batch until the timer fires. The recorded
// coherence costs must match the batching-off run sample for sample.
func TestSingleElementBatchCostsExactlyUnbatched(t *testing.T) {
	run := func(rg *rig) *Stats {
		r, err := rg.m.Alloc(16 * hostsim.MiB)
		if err != nil {
			t.Fatal(err)
		}
		runPipeline(t, rg, r, 8, 20*ms)
		return rg.m.Stats()
	}
	off := run(newRig(t, KindPrefetch))
	onRig := newBatchRig(t, KindPrefetch)
	on := run(onRig)

	// The window must actually have been in force (warm, not pinned by
	// pressure) — otherwise every push took the cold immediate-flush path
	// and the test proves nothing about timer-expired singleton batches.
	if w := onRig.m.coal.windowFor(onRig.mach.VRAM).Window(onRig.env.Now()); w <= 0 {
		t.Fatalf("push window = %v after warm pipeline, want > 0", w)
	}

	if on.PushesCoalesced != 0 {
		t.Fatalf("PushesCoalesced = %d, want 0 (20ms slack, <=2ms window: nothing to coalesce)",
			on.PushesCoalesced)
	}
	if on.CoherenceBatches != on.CoherencePushes {
		t.Fatalf("batches = %d pushes = %d, want equal (every batch a singleton)",
			on.CoherenceBatches, on.CoherencePushes)
	}
	if off.CoherencePushes != on.CoherencePushes {
		t.Fatalf("pushes off = %d on = %d, want identical pipelines",
			off.CoherencePushes, on.CoherencePushes)
	}
	if offN, onN := off.CoherenceCost.Count(), on.CoherenceCost.Count(); offN != onN {
		t.Fatalf("coherence samples off = %d on = %d, want equal", offN, onN)
	}
	if offMean, onMean := off.CoherenceCost.Mean(), on.CoherenceCost.Mean(); offMean != onMean {
		t.Fatalf("coherence mean off = %v on = %v, want exactly equal (no batch header on singletons)",
			offMean, onMean)
	}
}

// TestCoalescerMergesBackToBackPushes is the positive control for the test
// above: two regions written back to back toward the same destination inside
// a warm window ride one batch.
func TestCoalescerMergesBackToBackPushes(t *testing.T) {
	rg := newBatchRig(t, KindPrefetch)
	a, _ := rg.m.Alloc(8 * hostsim.MiB)
	b, _ := rg.m.Alloc(8 * hostsim.MiB)
	// Warm the codec->GPU flow (and the VRAM window) with region a; region
	// b's first write then predicts zero-shot through the flow history.
	runPipeline(t, rg, a, 4, 20*ms)

	st := rg.m.Stats()
	basePushes, baseBatches, baseCoal := st.CoherencePushes, st.CoherenceBatches, st.PushesCoalesced
	done := false
	rg.env.Spawn("burst", func(p *sim.Proc) {
		rg.write(t, p, a.ID, rg.codec)
		// 300us later — inside the >=1ms warm window — this write's push
		// must join a's still-pending batch.
		rg.write(t, p, b.ID, rg.codec)
		p.Sleep(20 * ms)
		rg.read(t, p, a.ID, rg.gpu)
		rg.read(t, p, b.ID, rg.gpu)
		done = true
	})
	rg.env.RunUntil(rg.env.Now() + time.Second)
	if !done {
		t.Fatal("burst did not finish")
	}

	pushes := st.CoherencePushes - basePushes
	batches := st.CoherenceBatches - baseBatches
	coalesced := st.PushesCoalesced - baseCoal
	if pushes != 2 {
		t.Fatalf("pushes = %d, want 2 (one per region)", pushes)
	}
	if batches != 1 || coalesced != 1 {
		t.Fatalf("batches = %d coalesced = %d, want 1/1 (b rode a's batch)", batches, coalesced)
	}
}
