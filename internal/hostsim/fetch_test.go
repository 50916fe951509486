package hostsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/prof"
	"repro/internal/sim"
)

// copyChunked drives a copy as a chunked transfer and blocks until every
// chunk lands, returning the total elapsed time and the final hop's summed
// service (wire) time.
func copyChunked(p *sim.Proc, m *Machine, from, to *Domain, size Bytes, cfg FetchConfig) (elapsed, service time.Duration) {
	start := p.Now()
	ct := m.CopyChunkedStart(from, to, size, cfg)
	ct.WaitRange(p, size)
	for i := range ct.recs {
		service += ct.recs[i].end - ct.recs[i].svcStart
	}
	return p.Now() - start, service
}

func TestFetchConfigResolvedDefaults(t *testing.T) {
	c := FetchConfig{Enabled: true}.Resolved()
	if c.ChunkBytes != 256*KiB || c.DMAThreshold != 64*KiB || c.MaxInflight != 4 {
		t.Fatalf("Resolved defaults = %+v", c)
	}
	// Explicit knobs survive resolution.
	c = FetchConfig{Enabled: true, ChunkBytes: MiB, DMAThreshold: KiB, MaxInflight: 2}.Resolved()
	if c.ChunkBytes != MiB || c.DMAThreshold != KiB || c.MaxInflight != 2 {
		t.Fatalf("Resolved clobbered explicit knobs: %+v", c)
	}
}

func TestChunkedTransferMovesAllBytes(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	l := m.LinkBetween(m.DRAM, m.VRAM)
	const size = 10*MiB + 17*KiB // deliberately not chunk-aligned
	var elapsed time.Duration
	env.Spawn("x", func(p *sim.Proc) {
		elapsed, _ = copyChunked(p, m, m.DRAM, m.VRAM, size, EnabledFetch())
	})
	env.Run()
	if l.BytesMoved() != size {
		t.Fatalf("BytesMoved = %d, want %d", l.BytesMoved(), size)
	}
	if elapsed <= 0 {
		t.Fatal("chunked copy took no time")
	}
}

func TestChunkedTransferFasterThanSyncCopy(t *testing.T) {
	const size = 16 * MiB
	run := func(chunked bool) time.Duration {
		env := sim.NewEnv(1)
		defer env.Close()
		m := HighEndDesktop(env)
		var elapsed time.Duration
		env.Spawn("x", func(p *sim.Proc) {
			if chunked {
				elapsed, _ = copyChunked(p, m, m.DRAM, m.VRAM, size, EnabledFetch())
			} else {
				elapsed, _ = m.CopyDetailed(p, m.DRAM, m.VRAM, size, true)
			}
		})
		env.Run()
		return elapsed
	}
	syncT, chunkT := run(false), run(true)
	// The PCIe DMA path is 10x the sync rate; even with per-batch latency
	// the chunked transfer must be several times faster.
	if chunkT*3 > syncT {
		t.Fatalf("chunked %v not clearly faster than sync %v", chunkT, syncT)
	}
}

func TestChunkedPromotionThreshold(t *testing.T) {
	// Same chunking geometry, threshold above vs below the chunk size: the
	// demoted run pays the sync rate and must be far slower.
	const size = 8 * MiB
	run := func(threshold Bytes) time.Duration {
		env := sim.NewEnv(1)
		defer env.Close()
		m := HighEndDesktop(env)
		cfg := FetchConfig{Enabled: true, ChunkBytes: 256 * KiB, DMAThreshold: threshold}
		var elapsed time.Duration
		env.Spawn("x", func(p *sim.Proc) {
			elapsed, _ = copyChunked(p, m, m.DRAM, m.VRAM, size, cfg)
		})
		env.Run()
		return elapsed
	}
	promoted := run(64 * KiB) // 256 KiB chunks >= 64 KiB -> DMA
	demoted := run(512 * KiB) // 256 KiB chunks < 512 KiB -> sync rate
	if promoted*3 > demoted {
		t.Fatalf("promoted %v not clearly faster than demoted %v", promoted, demoted)
	}
}

func TestChunkedWaitRangeUnblocksBeforeCompletion(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	const size = 32 * MiB
	var partial, full time.Duration
	var doneAtPartial bool
	env.Spawn("x", func(p *sim.Proc) {
		ct := m.CopyChunkedStart(m.DRAM, m.VRAM, size, EnabledFetch())
		ct.WaitRange(p, MiB) // reader touches only the first MiB
		partial = p.Now()
		doneAtPartial = ct.done
		ct.WaitRange(p, size)
		full = p.Now()
	})
	env.Run()
	if doneAtPartial {
		t.Fatal("transfer should still be in flight when the accessed range lands")
	}
	if partial >= full {
		t.Fatalf("partial wait %v not earlier than full wait %v", partial, full)
	}
	if partial*4 > full {
		t.Fatalf("partial wait %v should be a small fraction of full %v", partial, full)
	}
}

func TestChunkedTransferInterleavesWithOtherTraffic(t *testing.T) {
	// A small DMA transfer issued just after a large chunked fetch starts
	// must complete long before the fetch does — the semaphore release
	// between descriptor batches lets it in. Under a monolithic sync copy it
	// would be head-of-line blocked for the whole copy.
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	l := m.LinkBetween(m.DRAM, m.VRAM)
	const big = 64 * MiB
	var fetchDone, smallDone time.Duration
	env.Spawn("fetch", func(p *sim.Proc) {
		_, _ = copyChunked(p, m, m.DRAM, m.VRAM, big, EnabledFetch())
		fetchDone = p.Now()
	})
	env.Spawn("push", func(p *sim.Proc) {
		p.Sleep(50 * time.Microsecond) // arrive after the first batch starts
		l.Transfer(p, 256*KiB)
		smallDone = p.Now()
	})
	env.Run()
	if smallDone >= fetchDone {
		t.Fatalf("small transfer at %v did not interleave before fetch end %v", smallDone, fetchDone)
	}
	if smallDone > fetchDone/2 {
		t.Fatalf("small transfer at %v should land well before fetch end %v", smallDone, fetchDone)
	}
}

func TestChunkedLossRetriesWithoutDoubleCounting(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	l := m.LinkBetween(m.DRAM, m.VRAM)
	l.SetDMALoss(0.5, rand.New(rand.NewSource(42)))
	const size = 8 * MiB
	var service time.Duration
	env.Spawn("x", func(p *sim.Proc) {
		_, service = copyChunked(p, m, m.DRAM, m.VRAM, size, EnabledFetch())
	})
	env.Run()
	if l.BytesMoved() != size {
		t.Fatalf("BytesMoved = %d, want exactly %d (retries must not double-count)", l.BytesMoved(), size)
	}
	if l.DMARetries() == 0 {
		t.Fatal("expected re-driven chunks at 50% loss")
	}
	// Retries show up as extra service time, not extra bytes.
	wire := time.Duration(float64(size) / l.Bandwidth * float64(time.Second))
	if service <= wire {
		t.Fatalf("service %v should exceed lossless wire time %v", service, wire)
	}
}

func TestDMAGiveupCounterOnMonolithicPath(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLink(env, "lossy", float64(1*GiB), 0)
	l.SetDMALoss(1.0, rand.New(rand.NewSource(7)))
	env.Spawn("x", func(p *sim.Proc) { l.Transfer(p, MiB) })
	env.Run()
	if l.DMAGiveUps() != 1 {
		t.Fatalf("DMAGiveUps = %d, want 1 (loss=1.0 exhausts the retry budget)", l.DMAGiveUps())
	}
	if l.DMARetries() != maxDMARetries {
		t.Fatalf("DMARetries = %d, want %d", l.DMARetries(), maxDMARetries)
	}
	if l.BytesMoved() != MiB {
		t.Fatalf("BytesMoved = %d, want %d", l.BytesMoved(), MiB)
	}
}

func TestDMAGiveupCounterOnChunkedPath(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	l := m.LinkBetween(m.DRAM, m.VRAM)
	l.SetDMALoss(1.0, rand.New(rand.NewSource(7)))
	env.Spawn("x", func(p *sim.Proc) {
		copyChunked(p, m, m.DRAM, m.VRAM, MiB, EnabledFetch())
	})
	env.Run()
	// 4 chunks of 256 KiB, every one exhausts its retry budget.
	if l.DMAGiveUps() != 4 {
		t.Fatalf("DMAGiveUps = %d, want 4", l.DMAGiveUps())
	}
	if l.BytesMoved() != MiB {
		t.Fatalf("BytesMoved = %d, want %d", l.BytesMoved(), MiB)
	}
}

func TestGiveupDetectionPreservesRandomSequence(t *testing.T) {
	// The giveup check must not sample the loss rng: two links driven by
	// identically-seeded rngs, one transfer each, draw the same sequence
	// whether or not a giveup fires along the way.
	draws := func(loss float64) []float64 {
		env := sim.NewEnv(1)
		defer env.Close()
		l := NewLink(env, "l", float64(1*GiB), 0)
		rng := rand.New(rand.NewSource(99))
		l.SetDMALoss(loss, rng)
		env.Spawn("x", func(p *sim.Proc) { l.Transfer(p, MiB) })
		env.Run()
		out := make([]float64, 4)
		for i := range out {
			out[i] = rng.Float64()
		}
		return out
	}
	// At loss=1.0 the transfer draws maxDMARetries times then gives up; a
	// second run must leave the rng at the same position.
	a, b := draws(1.0), draws(1.0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rng diverged after giveup: %v vs %v", a, b)
		}
	}
}

func TestChargeWaitPartitionsInterval(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	pf := prof.New()
	pf.SetNow(env.Now)
	env.SetProfiler(pf)
	m := HighEndDesktop(env)
	const size = 4 * MiB
	key := "reader"
	env.Spawn("x", func(p *sim.Proc) {
		pf.BeginClass(key, "test-fetch")
		start := p.Now()
		ct := m.CopyChunkedStart(m.DRAM, m.VRAM, size, EnabledFetch())
		ct.WaitRange(p, size)
		ct.ChargeWait(key, start, p.Now())
		pf.EndClass(key)
	})
	env.Run()
	cs := pf.Report().Classes["test-fetch"]
	if cs == nil {
		t.Fatal("no class stats recorded")
	}
	var named time.Duration
	for _, d := range cs.Comps {
		named += d
	}
	if named != cs.Total {
		t.Fatalf("ChargeWait must fully partition the wait: named %v, total %v", named, cs.Total)
	}
	if cs.Comps["link:pcie-h2d:dma-chunk"] == 0 {
		t.Fatal("no dma-chunk component charged")
	}
	if cs.Comps["link:pcie-h2d:chunk-queue"] == 0 {
		t.Fatal("no chunk-queue component charged")
	}
}

func TestChunkedTransferRoutesViaDRAM(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	if m.LinkBetween(m.Guest, m.VRAM) != nil {
		t.Skip("guest->vram unexpectedly direct")
	}
	const size = 2 * MiB
	env.Spawn("x", func(p *sim.Proc) {
		copyChunked(p, m, m.Guest, m.VRAM, size, EnabledFetch())
	})
	env.Run()
	if totalBytesMoved(m) != 2*size {
		t.Fatalf("bytes moved = %d, want %d (two hops)", totalBytesMoved(m), 2*size)
	}
}

func TestChunkedOnCompleteRunsOnce(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	calls := 0
	env.Spawn("x", func(p *sim.Proc) {
		ct := m.CopyChunkedStart(m.DRAM, m.VRAM, MiB, EnabledFetch())
		ct.OnComplete(func() { calls++ })
		ct.WaitRange(p, MiB)
		if !ct.done {
			t.Error("transfer not done after full WaitRange")
		}
		// Registering after completion fires immediately.
		ct.OnComplete(func() { calls += 10 })
	})
	env.Run()
	if calls != 11 {
		t.Fatalf("OnComplete calls = %d, want 11", calls)
	}
}

func TestChunkedCoversTail(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	var ct *ChunkedTransfer
	env.Spawn("x", func(p *sim.Proc) {
		ct = m.CopyChunkedStart(m.DRAM, m.VRAM, 2*MiB, EnabledFetch())
		ct.WaitRange(p, 2*MiB)
	})
	env.Run()
	if !ct.Covers(0) || !ct.Covers(MiB) || !ct.Covers(2*MiB) {
		t.Fatal("Covers must accept ranges up to and including the tail")
	}
	if ct.Covers(2*MiB + 1) {
		t.Fatal("Covers must reject ranges past the tail (WaitRange would clamp them)")
	}
}

// TestChargeWaitNeverOvercharges is the satellite property test for the
// batch-boundary double-charge: with competing link traffic, DMA loss
// retries, and staggered waiters whose blocked intervals end mid-batch, every
// waiter's per-component charges must sum to exactly its blocked wall
// interval — never more (double-charge into both chunk-queue and a service
// component) and never less (attribution hole).
func TestChargeWaitNeverOvercharges(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	pf := prof.New()
	pf.SetNow(env.Now)
	env.SetProfiler(pf)
	m := HighEndDesktop(env)
	l := m.LinkBetween(m.DRAM, m.VRAM)
	l.SetDMALoss(0.3, rand.New(rand.NewSource(11)))
	const size = 6 * MiB
	cfg := EnabledFetch()
	cfg.MaxInflight = 2 // more batch boundaries to straddle
	ranges := []Bytes{512 * KiB, 2 * MiB, 4 * MiB, size}
	var ct *ChunkedTransfer
	var start time.Duration
	env.Spawn("fetch", func(p *sim.Proc) {
		start = p.Now()
		ct = m.CopyChunkedStart(m.DRAM, m.VRAM, size, cfg)
		for i, upTo := range ranges {
			i, upTo := i, upTo
			env.Spawn("w", func(wp *sim.Proc) {
				wp.Sleep(time.Duration(i*30) * time.Microsecond)
				key := fmt.Sprintf("waiter-%d", i)
				pf.BeginClass(key, key)
				from := wp.Now()
				ct.WaitRange(wp, upTo)
				ct.ChargeWait(key, from, wp.Now())
				pf.EndClass(key)
			})
		}
	})
	env.Spawn("competing", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(40 * time.Microsecond)
			l.Transfer(p, 128*KiB)
		}
	})
	env.Run()
	rep := pf.Report()
	for i := range ranges {
		key := fmt.Sprintf("waiter-%d", i)
		cs := rep.Classes[key]
		if cs == nil {
			t.Fatalf("%s: no class stats", key)
		}
		var named time.Duration
		for _, d := range cs.Comps {
			named += d
		}
		if named > cs.Total {
			t.Fatalf("%s: components %v exceed blocked interval %v (double-charge)", key, named, cs.Total)
		}
		if named != cs.Total {
			t.Fatalf("%s: components %v != blocked interval %v (attribution hole)", key, named, cs.Total)
		}
	}
	// Adversarial probes: re-partition [start, to] for instants strictly
	// inside service windows and chunk gaps — the shapes a waiter interval
	// takes when a batch-boundary semaphore release lands its chunk after the
	// waiter already unblocked. Each probe must partition exactly.
	var probes []time.Duration
	for i := range ct.recs {
		rec := &ct.recs[i]
		probes = append(probes, rec.svcStart, (rec.svcStart+rec.end)/2, rec.end)
		if i+1 < len(ct.recs) && ct.recs[i+1].svcStart > rec.end {
			probes = append(probes, (rec.end+ct.recs[i+1].svcStart)/2)
		}
	}
	for pi, to := range probes {
		if to <= start {
			continue
		}
		key := fmt.Sprintf("probe-%d", pi)
		pf.BeginClass(key, key)
		ct.ChargeWait(key, start, to)
		pf.EndClass(key)
		cs := pf.Report().Classes[key]
		var named time.Duration
		for _, d := range cs.Comps {
			named += d
		}
		if named != to-start {
			t.Fatalf("probe %d: charged %v over interval %v (from %v to %v)", pi, named, to-start, start, to)
		}
	}
}

// TestCloseReleasesInflightChunkFences is the satellite leak regression:
// closing the environment while a chunked transfer is mid-flight aborts the
// driver between fence alloc and signal, which used to pin the allocated
// slots forever. The close hook must drain the table.
func TestCloseReleasesInflightChunkFences(t *testing.T) {
	before := runtime.NumGoroutine()
	env := sim.NewEnv(1)
	m := HighEndDesktop(env)
	var ct *ChunkedTransfer
	env.Spawn("fetch", func(p *sim.Proc) {
		ct = m.CopyChunkedStart(m.DRAM, m.VRAM, 64*MiB, EnabledFetch())
		ct.WaitRange(p, 64*MiB)
	})
	env.RunUntil(env.Now() + 500*time.Microsecond)
	if ct == nil || ct.done {
		t.Fatal("transfer should still be in flight at 500us")
	}
	if m.dmaFences.InUse() == 0 {
		t.Fatal("in-flight transfer should hold fence slots")
	}
	env.Close()
	if got := m.dmaFences.InUse(); got != 0 {
		t.Fatalf("fence slots leaked across Close: InUse = %d, want 0", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked across Close: %d > %d", n, before)
	}
}
