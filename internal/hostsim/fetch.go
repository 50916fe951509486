package hostsim

import (
	"fmt"
	"time"

	"repro/internal/fence"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements chunked, DMA-promoted transfers (DESIGN.md §11): a
// large copy is split into fixed-size chunks driven as pipelined DMA
// descriptors with per-chunk completion fences, instead of one monolithic
// CPU-driven copy that holds the link for its whole duration. Chunks at or
// above a promotion threshold ride the asynchronous DMA path (Bandwidth);
// smaller residues fall back to the synchronous rate (SyncBandwidth). The
// link semaphore is released between descriptor batches, so coherence pushes
// and concurrent fetches interleave on the same link rather than queueing
// behind one multi-millisecond copy — the §5.2 blocking-upload pathology.
//
// Determinism: the driver is an ordinary simulation process; chunk loss
// retries consume the link's loss rng exactly as monolithic DMA transfers
// do, and completion fences retire at simulated instants, so equal seeds
// produce identical chunk schedules.

// FetchConfig parameterizes chunked demand fetches. The zero value disables
// chunking entirely; Resolved fills the remaining knobs with defaults.
type FetchConfig struct {
	// Enabled turns chunked transfers on. Off (the default) keeps the
	// monolithic synchronous copy path, byte-identical to builds that
	// predate chunking.
	Enabled bool
	// ChunkBytes is the descriptor payload size. Default 256 KiB.
	ChunkBytes Bytes
	// DMAThreshold promotes chunks of at least this size onto the DMA path
	// (Link.Bandwidth); smaller chunks use the synchronous rate. Default
	// 64 KiB — below that, descriptor setup dominates and real stacks copy
	// inline.
	DMAThreshold Bytes
	// MaxInflight is how many chunk descriptors are driven per link-
	// semaphore hold (one descriptor-ring batch); the semaphore is released
	// between batches so other traffic interleaves. Default 4.
	MaxInflight int
}

// Resolved returns the config with zero knobs replaced by defaults.
func (c FetchConfig) Resolved() FetchConfig {
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 256 * KiB
	}
	if c.DMAThreshold <= 0 {
		c.DMAThreshold = 64 * KiB
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	return c
}

// EnabledFetch returns the default chunked-fetch configuration.
func EnabledFetch() FetchConfig {
	return FetchConfig{Enabled: true}.Resolved()
}

// chunkRec is one landed chunk's service interval on its final hop, kept so
// waiting readers can attribute their blocked time chunk by chunk.
type chunkRec struct {
	l        *Link
	svcStart time.Duration
	end      time.Duration
	dma      bool
}

// hop is one link of a chunked transfer's route with its endpoint domains
// (needed for the guest-boundary thermal charge).
type hop struct {
	l        *Link
	from, to *Domain
}

// ChunkedTransfer is one in-flight chunked copy. Readers wait for the
// chunks covering their accessed range with WaitRange and attribute the
// blocked time with ChargeWait; the transfer keeps draining the remaining
// chunks in the background.
type ChunkedTransfer struct {
	m     *Machine
	hops  []hop
	cfg   FetchConfig
	total Bytes
	n     int // chunk count

	landed int
	// cur signals completion of the next chunk to land; allocated just
	// before the previous chunk's fence fires, so a transfer holds at most
	// two fence-table slots at once regardless of chunk count.
	cur  *fence.Fence
	done bool

	recs       []chunkRec
	onComplete []func()
}

// dmaFenceTable lazily creates the machine's DMA completion-fence table.
func (m *Machine) dmaFenceTable() *fence.Table {
	if m.dmaFences == nil {
		m.dmaFences = fence.NewTable(m.Env)
	}
	return m.dmaFences
}

// CopyChunkedStart begins a chunked copy of size bytes from one domain to
// another (routing via DRAM when no direct link exists) and returns
// immediately; a spawned driver process moves the chunks. The returned
// transfer is ready to WaitRange on.
func (m *Machine) CopyChunkedStart(from, to *Domain, size Bytes, cfg FetchConfig) *ChunkedTransfer {
	cfg = cfg.Resolved()
	var hops []hop
	if l := m.links[linkKey{from, to}]; l != nil {
		hops = []hop{{l, from, to}}
	} else {
		l1 := m.links[linkKey{from, m.DRAM}]
		l2 := m.links[linkKey{m.DRAM, to}]
		if l1 == nil || l2 == nil {
			panic(fmt.Sprintf("hostsim: no path %s -> %s", from, to))
		}
		hops = []hop{{l1, from, m.DRAM}, {l2, m.DRAM, to}}
	}
	n := int((size + cfg.ChunkBytes - 1) / cfg.ChunkBytes)
	if n < 1 {
		n = 1
	}
	ct := &ChunkedTransfer{m: m, hops: hops, cfg: cfg, total: size, n: n, recs: make([]chunkRec, 0, n)}
	ct.cur = m.dmaFenceTable().Alloc()
	m.Env.Spawn("dma-chunks", ct.drive)
	return ct
}

// chunkSize returns the payload of chunk i (the last chunk carries the
// residue).
func (ct *ChunkedTransfer) chunkSize(i int) Bytes {
	if i == ct.n-1 {
		return ct.total - Bytes(ct.n-1)*ct.cfg.ChunkBytes
	}
	return ct.cfg.ChunkBytes
}

// Covers reports whether waiting on [0, upTo) can ever be satisfied by this
// transfer. WaitRange silently clamps ranges past the tail to the whole
// transfer, so a joiner whose accessed range outruns the transfer would
// unblock with its suffix still missing; callers must check Covers before
// joining and drive a fresh fetch otherwise (the svm join-path regression).
func (ct *ChunkedTransfer) Covers(upTo Bytes) bool {
	return upTo <= ct.total
}

// OnComplete registers fn to run (in the driver's context) when the last
// chunk lands; if the transfer already finished, fn runs immediately.
func (ct *ChunkedTransfer) OnComplete(fn func()) {
	if ct.done {
		fn()
		return
	}
	ct.onComplete = append(ct.onComplete, fn)
}

// drive moves the chunks: per descriptor batch, per hop, it acquires the
// link, pays the per-transfer latency once (descriptor-ring setup), drives
// up to MaxInflight chunks back to back, and releases the link so queued
// traffic interleaves before the next batch.
func (ct *ChunkedTransfer) drive(p *sim.Proc) {
	for first := 0; first < ct.n; first += ct.cfg.MaxInflight {
		batch := ct.cfg.MaxInflight
		if first+batch > ct.n {
			batch = ct.n - first
		}
		for hi := range ct.hops {
			h := &ct.hops[hi]
			l := h.l
			lastHop := hi == len(ct.hops)-1
			hopStart := p.Now()
			l.sem.Acquire(p, 1)
			var sp obs.Span
			if l.tr != nil {
				sp = l.tr.Begin(l.tk, "dma-chunks")
				l.tr.Count(l.tk, "queue_depth", float64(l.sem.InUse()))
			}
			p.Sleep(l.Latency)
			for c := 0; c < batch; c++ {
				size := ct.chunkSize(first + c)
				dma := size >= ct.cfg.DMAThreshold
				rate := l.SyncBandwidth
				if dma {
					rate = l.Bandwidth
				}
				d := time.Duration(float64(size) / (rate * l.rateScale()) * float64(time.Second))
				svcStart := p.Now()
				service := l.lossyDMASleep(p, d, dma)
				l.moved += size
				l.busy += service
				l.bytesCtr.Add(int64(size))
				if lastHop {
					ct.recs = append(ct.recs, chunkRec{l: l, svcStart: svcStart, end: p.Now(), dma: dma})
					ct.land()
				}
			}
			if l.tr != nil {
				l.tr.End(l.tk, sp)
			}
			l.sem.Release(1)
			ct.m.heatBoundary(h.from, h.to, p.Now()-hopStart)
		}
	}
}

// land completes one chunk: the next chunk's fence is allocated before the
// finished one signals, so woken waiters always find an unsignaled fence to
// park on (and the transfer never holds more than two table slots).
func (ct *ChunkedTransfer) land() {
	ct.landed++
	finished := ct.cur
	if ct.landed < ct.n {
		ct.cur = ct.m.dmaFenceTable().Alloc()
	} else {
		ct.cur = nil
		ct.done = true
	}
	finished.Signal()
	if ct.done {
		cbs := ct.onComplete
		ct.onComplete = nil
		for _, fn := range cbs {
			fn()
		}
	}
}

// WaitRange parks p until the chunks covering [0, upTo) have landed.
// upTo <= 0 or beyond the transfer waits for everything.
func (ct *ChunkedTransfer) WaitRange(p *sim.Proc, upTo Bytes) {
	if upTo <= 0 || upTo > ct.total {
		upTo = ct.total
	}
	need := int((upTo + ct.cfg.ChunkBytes - 1) / ct.cfg.ChunkBytes)
	if need < 1 {
		need = 1
	}
	if need > ct.n {
		need = ct.n
	}
	for ct.landed < need {
		ct.cur.Wait(p)
	}
}

// ChargeWait attributes a reader's blocked interval [from, to] to the
// profiler under key: each landed chunk's service window is charged to the
// link's dma-chunk (or sync-copy, for unpromoted chunks) component, and
// everything between — descriptor setup, semaphore gaps where other traffic
// interleaved, time before service began — to the chunk-queue component.
// The interval is fully partitioned, so demand-fetch attribution coverage
// stays complete. Charging is per reader: two readers waiting on the same
// transfer each charge their own blocked time, matching how access latency
// itself is accounted.
func (ct *ChunkedTransfer) ChargeWait(key any, from, to time.Duration) {
	main := ct.hops[len(ct.hops)-1].l
	pf := main.pf
	if pf == nil || to <= from {
		return
	}
	cursor := from
	for i := range ct.recs {
		rec := &ct.recs[i]
		if rec.end <= cursor || rec.end <= rec.svcStart {
			continue
		}
		if rec.svcStart >= to {
			break
		}
		if rec.svcStart > cursor {
			// Gap before this chunk's service: queueing/descriptor time. The
			// gap's end is clamped to the interval bound so a service window
			// straddling `to` (a batch-boundary semaphore release landing the
			// chunk after the waiter unblocked) can never push a chunk-queue
			// charge past the wall and double-count against the sync-copy /
			// dma-chunk charge of a later waiter's partition.
			gapEnd := rec.svcStart
			if gapEnd > to {
				gapEnd = to
			}
			pf.ChargeSpan(key, rec.l.lblChunkQ, cursor, gapEnd)
			cursor = gapEnd
		}
		end := rec.end
		if end > to {
			end = to
		}
		if end > cursor {
			lbl := rec.l.lblSync
			if rec.dma {
				lbl = rec.l.lblChunkDMA
			}
			pf.ChargeSpan(key, lbl, cursor, end)
			cursor = end
		}
		if cursor >= to {
			return
		}
	}
	if cursor < to {
		pf.ChargeSpan(key, main.lblChunkQ, cursor, to)
	}
}
