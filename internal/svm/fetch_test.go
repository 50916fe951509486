package svm

import (
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
)

// fetchCfg is a write-invalidate config with chunked demand fetches on —
// every read is a demand fetch, all of them chunked.
func fetchCfg() Config {
	cfg := DefaultConfig()
	cfg.Kind = KindWriteInvalidate
	cfg.Fetch = hostsim.EnabledFetch()
	return cfg
}

func TestChunkedDemandFetchBringsDomainCurrent(t *testing.T) {
	rg := newRigCfg(t, fetchCfg())
	r, _ := rg.m.Alloc(4 * hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		rg.read(t, p, r.ID, rg.gpu)
	})
	rg.env.Run()
	st := rg.m.Stats()
	if st.DemandFetches != 1 || st.ChunkedFetches != 1 {
		t.Fatalf("DemandFetches=%d ChunkedFetches=%d, want 1/1", st.DemandFetches, st.ChunkedFetches)
	}
	// The full transfer has drained by the end of the run, so the copy is
	// installed and the coherence accounting fed.
	if !r.HasCurrentCopy(rg.gpu.Domain) {
		t.Fatal("gpu domain should hold the current copy after the run")
	}
	if st.BytesCoherence != 4*hostsim.MiB {
		t.Fatalf("BytesCoherence = %d, want %d", st.BytesCoherence, 4*hostsim.MiB)
	}
	if st.CoherenceCost.Count() != 1 {
		t.Fatalf("CoherenceCost count = %d, want 1", st.CoherenceCost.Count())
	}
}

func TestChunkedFetchDisabledPathUntouched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindWriteInvalidate
	rg := newRigCfg(t, cfg)
	r, _ := rg.m.Alloc(4 * hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		rg.read(t, p, r.ID, rg.gpu)
	})
	rg.env.Run()
	st := rg.m.Stats()
	if st.ChunkedFetches != 0 || st.FetchJoins != 0 {
		t.Fatalf("chunked counters moved with chunking off: %d/%d", st.ChunkedFetches, st.FetchJoins)
	}
	if st.DemandFetches != 1 {
		t.Fatalf("DemandFetches = %d, want 1", st.DemandFetches)
	}
}

func TestChunkedFetchSecondReaderJoins(t *testing.T) {
	rg := newRigCfg(t, fetchCfg())
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	rg.env.Spawn("w", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		// Two concurrent readers toward the same domain: the second joins
		// the first's in-flight transfer instead of re-driving it.
		gpu2 := rg.gpu
		gpu2.Name = "gpu2"
		for i, acc := range []Accessor{rg.gpu, gpu2} {
			acc := acc
			rg.env.Spawn("r", func(rp *sim.Proc) {
				if i == 1 {
					rp.Sleep(100 * time.Microsecond)
				}
				rg.read(t, rp, r.ID, acc)
			})
			_ = i
		}
	})
	rg.env.Run()
	st := rg.m.Stats()
	if st.ChunkedFetches != 1 {
		t.Fatalf("ChunkedFetches = %d, want 1 (one transfer for both readers)", st.ChunkedFetches)
	}
	if st.FetchJoins != 1 {
		t.Fatalf("FetchJoins = %d, want 1", st.FetchJoins)
	}
	if st.DemandFetches != 2 {
		t.Fatalf("DemandFetches = %d, want 2", st.DemandFetches)
	}
}

// TestChunkedFetchOverlappingReaderPastTail is the regression for the
// short-join bug: a second reader joining an in-flight transfer whose range
// extends past the transfer's tail must not park on chunks that will never
// be driven. WaitRange clamps past-the-end ranges to the transfer, so a bad
// join "completes" with the suffix silently missing; the join path now
// checks coverage and drives a fresh full fetch instead.
func TestChunkedFetchOverlappingReaderPastTail(t *testing.T) {
	rg := newRigCfg(t, fetchCfg())
	r, _ := rg.m.Alloc(16 * hostsim.MiB)
	var prefixDone, fullDone time.Duration
	rg.env.Spawn("w", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		// An in-flight transfer covering only the first half of the region
		// (as if a prefix reader had driven a short fetch).
		short := &chunkedFetch{
			ct:      rg.mach.CopyChunkedStart(rg.mach.DRAM, rg.mach.VRAM, r.Size/2, rg.m.cfg.Fetch),
			version: r.version,
		}
		r.chunked[rg.gpu.Domain.ID] = short
		// Staggered overlapping readers: A's range fits inside the short
		// transfer and joins it; B's extends past its tail and must not.
		rg.env.Spawn("ra", func(rp *sim.Proc) {
			a, err := rg.m.BeginAccess(rp, r.ID, rg.gpu, UsageRead, hostsim.MiB)
			if err != nil {
				t.Errorf("prefix read: %v", err)
				return
			}
			prefixDone = rp.Now()
			a.End(rp)
		})
		rg.env.Spawn("rb", func(rp *sim.Proc) {
			rp.Sleep(200 * time.Microsecond) // join mid-flight
			rg.read(t, rp, r.ID, rg.gpu)     // full-region read
			fullDone = rp.Now()
		})
	})
	rg.env.Run()
	st := rg.m.Stats()
	if st.FetchJoins != 1 {
		t.Fatalf("FetchJoins = %d, want 1 (only the covered prefix reader joins)", st.FetchJoins)
	}
	if st.ChunkedFetches != 1 {
		t.Fatalf("ChunkedFetches = %d, want 1 (uncovered reader drives a fresh fetch)", st.ChunkedFetches)
	}
	// The fresh full-region fetch is the only one that installs the copy:
	// if the full reader had joined the short transfer, the region would
	// never become current at the GPU and the read would have returned with
	// half the bytes missing.
	if !r.HasCurrentCopy(rg.gpu.Domain) {
		t.Fatal("gpu domain not current: full-range reader returned without its suffix")
	}
	if fullDone <= prefixDone {
		t.Fatalf("full reader finished at %v, not after the prefix reader at %v", fullDone, prefixDone)
	}
}

func TestChunkedFetchUnblocksOnAccessedRange(t *testing.T) {
	// A reader touching only the head of a large region unblocks when the
	// covering chunks land, while a full-range reader of the same region
	// waits for every chunk — the overlap-with-commit semantics.
	const region = 64 * hostsim.MiB
	run := func(bytes hostsim.Bytes) time.Duration {
		rg := newRigCfg(t, fetchCfg())
		r, _ := rg.m.Alloc(region)
		var latency time.Duration
		rg.env.Spawn("t", func(p *sim.Proc) {
			rg.write(t, p, r.ID, rg.codec)
			start := p.Now()
			a, err := rg.m.BeginAccess(p, r.ID, rg.gpu, UsageRead, bytes)
			if err != nil {
				t.Errorf("read begin: %v", err)
				return
			}
			latency = p.Now() - start
			a.End(p)
		})
		rg.env.Run()
		return latency
	}
	partial := run(hostsim.MiB)
	full := run(0) // 0 = whole region
	if partial*4 > full {
		t.Fatalf("range-partial read %v should be a small fraction of full-range %v", partial, full)
	}
}

func TestChunkedFetchStaleVersionRedrives(t *testing.T) {
	rg := newRigCfg(t, fetchCfg())
	r, _ := rg.m.Alloc(64 * hostsim.MiB)
	var readDone, secondWrite time.Duration
	rg.env.Spawn("w", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		rg.env.Spawn("r", func(rp *sim.Proc) {
			rg.read(t, rp, r.ID, rg.gpu)
			readDone = rp.Now()
		})
		// Commit a second write while the reader's fetch is in flight: the
		// landed chunks are stale and the reader must re-drive.
		p.Sleep(time.Millisecond)
		rg.write(t, p, r.ID, rg.codec)
		secondWrite = p.Now()
	})
	rg.env.Run()
	st := rg.m.Stats()
	if st.ChunkedFetches < 2 {
		t.Fatalf("ChunkedFetches = %d, want >= 2 (stale fetch re-driven)", st.ChunkedFetches)
	}
	if readDone <= secondWrite {
		t.Fatalf("reader finished at %v, before the invalidating write at %v", readDone, secondWrite)
	}
	// The stale transfer's bytes are waste, not useful coherence.
	if st.BytesWasted == 0 {
		t.Fatal("stale chunked fetch should count as waste")
	}
}

func TestChunkedFetchConcurrentWithCoherencePush(t *testing.T) {
	// Broadcast pushes and a chunked demand fetch toward the same domain
	// share its link; the run must drain with both mechanisms live
	// (deadlock/aliasing guard).
	cfg := fetchCfg()
	cfg.Kind = KindBroadcast
	rg := newRigCfg(t, cfg)
	a, _ := rg.m.Alloc(8 * hostsim.MiB)
	b, _ := rg.m.Alloc(8 * hostsim.MiB)
	rg.env.Spawn("t", func(p *sim.Proc) {
		// First generation: gpu reads both regions so broadcast targets it.
		for _, id := range []RegionID{a.ID, b.ID} {
			rg.write(t, p, id, rg.codec)
			rg.read(t, p, id, rg.gpu)
		}
		// Second generation: writes trigger broadcast pushes toward the
		// gpu domain while a fresh region's demand fetch is also running.
		c, _ := rg.m.Alloc(8 * hostsim.MiB)
		rg.write(t, p, a.ID, rg.codec)
		rg.write(t, p, c.ID, rg.codec)
		rg.read(t, p, c.ID, rg.gpu)
		rg.read(t, p, a.ID, rg.gpu)
	})
	rg.env.Run()
	st := rg.m.Stats()
	if st.ChunkedFetches == 0 {
		t.Fatal("expected chunked fetches in the broadcast run")
	}
	if st.CoherenceBatches == 0 {
		t.Fatal("expected broadcast pushes alongside the fetches")
	}
}

// TestChunkedFetchRecordReusedBeforeReaderResumes: a fetch's record is
// recycled when its transfer completes, before the readers parked in it
// resume. Readers a and b wait on one fetch. In the landing's instant, a
// resumes first, rewrites the region and reads it again, which starts a new
// fetch in the recycled record while b is still parked. b must judge the
// version it waited for, not the record's new one: that version is stale,
// so b joins the new fetch and returns holding the current copy.
func TestChunkedFetchRecordReusedBeforeReaderResumes(t *testing.T) {
	cfg := fetchCfg()
	cfg.AccessBaseCost, cfg.CoherenceFixedCost = 0, 0 // a's rewrite and re-read take no time
	rg := newRigCfg(t, cfg)
	r, _ := rg.m.Alloc(4 * hostsim.MiB)
	var landed, aDone, bDone time.Duration
	bCurrent := false
	rg.env.Spawn("w", func(p *sim.Proc) {
		rg.write(t, p, r.ID, rg.codec)
		gpu2 := rg.gpu
		gpu2.Name = "gpu2"
		rg.env.Spawn("a", func(rp *sim.Proc) {
			rg.read(t, rp, r.ID, rg.gpu)
			landed = rp.Now()
			rg.write(t, rp, r.ID, rg.codec)
			rg.read(t, rp, r.ID, rg.gpu)
			aDone = rp.Now()
		})
		rg.env.Spawn("b", func(rp *sim.Proc) {
			a, err := rg.m.BeginAccess(rp, r.ID, gpu2, UsageRead, 0)
			if err != nil {
				t.Errorf("b read: %v", err)
				return
			}
			bDone, bCurrent = rp.Now(), r.HasCurrentCopy(gpu2.Domain)
			a.End(rp)
		})
	})
	rg.env.Run()
	if fetches := rg.m.freeFetch; fetches == nil || fetches.next != nil {
		t.Fatal("want one fetch record, reused by the second fetch")
	}
	st := rg.m.Stats()
	if st.ChunkedFetches != 2 || st.FetchJoins != 2 {
		t.Fatalf("ChunkedFetches=%d FetchJoins=%d, want 2/2 (b joins both fetches)", st.ChunkedFetches, st.FetchJoins)
	}
	if !bCurrent || bDone != aDone || bDone <= landed {
		t.Fatalf("b returned at %v current=%v; want current, with a's second read at %v, after the first landing at %v", bDone, bCurrent, aDone, landed)
	}
}
