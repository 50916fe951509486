package hostsim

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements chunked, DMA-promoted transfers (DESIGN.md §11): a
// large copy is split into fixed-size chunks driven as pipelined DMA
// descriptors, instead of one monolithic CPU-driven copy that holds the link
// for its whole duration. A reader registers the landed-chunk count its
// range needs and is woken once, by the landing that reaches it. Chunks at or
// above a promotion threshold ride the asynchronous DMA path (Bandwidth);
// smaller residues fall back to the synchronous rate (SyncBandwidth). The
// link semaphore is released between descriptor batches, so coherence pushes
// and concurrent fetches interleave on the same link rather than queueing
// behind one multi-millisecond copy — the §5.2 blocking-upload pathology.
//
// Determinism: the driver is a callback chain (DESIGN.md §5) that runs the
// link's per-hop helpers, whose every wait is one event on the kernel's
// (time, sequence) order; chunk loss retries consume the link's loss rng
// exactly as monolithic DMA transfers do, and readers resume at the
// simulated instant their last chunk lands, in registration order, so equal
// seeds produce identical chunk schedules.

// FetchConfig parameterizes chunked demand fetches. A zero ChunkBytes (the
// zero value) disables chunking: demand fetches keep the monolithic
// synchronous copy path, byte-identical to builds that predate chunking.
// Resolved fills the remaining knobs of an enabled config with defaults.
type FetchConfig struct {
	// ChunkBytes is the descriptor payload size; zero turns chunking off.
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

// Enabled reports whether demand fetches take the chunked path.
func (c FetchConfig) Enabled() bool { return c.ChunkBytes > 0 }

// Resolved returns an enabled config with zero knobs replaced by defaults,
// and the zero config for a disabled one, whose other knobs are never read.
func (c FetchConfig) Resolved() FetchConfig {
	if !c.Enabled() {
		return FetchConfig{}
	}
	if c.DMAThreshold <= 0 {
		c.DMAThreshold = 64 * KiB
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	return c
}

// EnabledFetch returns the default chunked-fetch configuration: 256 KiB
// chunks, a 64 KiB DMA threshold and 4 descriptors per batch.
func EnabledFetch() FetchConfig {
	return FetchConfig{ChunkBytes: 256 * KiB}.Resolved()
}

// chunkRec is one landed chunk's service interval on its final hop, kept so
// waiting readers can attribute their blocked time chunk by chunk.
type chunkRec struct {
	l        *Link
	svcStart time.Duration
	end      time.Duration
	dma      bool
}

// ChunkedTransfer is one in-flight chunked copy. Readers wait for the
// chunks covering their accessed range with WaitRange; the transfer keeps
// draining the remaining chunks in the background.
//
// Each Machine recycles its transfer records, and its reader registrations,
// so a warm fetch allocates nothing. A transfer is recycled once its last
// chunk has landed and every reader parked in it has resumed: a caller must
// not use it after that, except that OnComplete and Covers keep answering
// until the next CopyChunkedStart on the machine. A parked reader reads the
// transfer after its wait (WaitRange charges its blocked time from the chunk
// records), which is why a transfer is kept until its last reader resumes.
type ChunkedTransfer struct {
	m     *Machine
	rt    route
	cfg   FetchConfig
	total Bytes
	n     int // chunk count

	// The driver's position, four levels deep: the descriptor batch from
	// chunk first, the hop hi, chunk c of the batch, and the wire attempt.
	// step is ct.drive, bound once per record, so no step allocates.
	step               func()
	stage              int
	first, hi, c       int
	attempt            int
	dma                bool
	hopStart, svcStart time.Duration
	wire               time.Duration // one attempt of the current chunk
	sp                 obs.Span

	landed int
	done   bool
	// readers are the parked WaitRange callers, in registration order;
	// parked counts the registered readers that have not yet resumed.
	readers []*chunkReader
	parked  int

	// recs holds the landed chunks' service intervals when the final hop's
	// link has a profiler: only chargeWait reads them.
	recs       []chunkRec
	onComplete []func()
	next       *ChunkedTransfer // free-list link
}

// chunkReader is one parked WaitRange caller's registration, released once
// need chunks have landed. The Machine recycles it as soon as its event is
// signaled: the reader reads nothing from the event after it parks.
type chunkReader struct {
	need int
	ev   sim.Event
	next *chunkReader // free-list link
}

// CopyChunkedStart begins a chunked copy of size bytes from one domain to
// another (routing via DRAM when no direct link exists) and returns
// immediately; the driver's first step is scheduled at the current instant.
// The returned transfer is ready to WaitRange on. cfg must be enabled.
func (m *Machine) CopyChunkedStart(from, to *Domain, size Bytes, cfg FetchConfig) *ChunkedTransfer {
	cfg = cfg.Resolved()
	n := int((size + cfg.ChunkBytes - 1) / cfg.ChunkBytes)
	if n < 1 {
		n = 1
	}
	ct := m.freeTransfer
	if ct == nil {
		ct = &ChunkedTransfer{m: m}
		ct.step = ct.drive
	} else {
		m.freeTransfer = ct.next
		ct.next = nil
	}
	ct.rt, ct.cfg, ct.total, ct.n = m.route(from, to), cfg, size, n
	ct.stage, ct.first, ct.hi = ctAcquire, 0, 0
	ct.landed, ct.done = 0, false
	ct.recs = ct.recs[:0]
	m.Env.After(0, ct.step)
	return ct
}

// recycle returns a finished transfer to its machine once no reader is
// parked in it; the last reader to resume recycles it otherwise.
func (ct *ChunkedTransfer) recycle() {
	if ct.parked == 0 {
		ct.next = ct.m.freeTransfer
		ct.m.freeTransfer = ct
	}
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

// The stages of the chunk driver.
const (
	ctAcquire = iota // acquire hop hi's link for the batch from chunk first
	ctSetup          // the link is held: pay the descriptor-ring setup
	ctChunk          // start chunk c's wire time
	ctWire           // a wire attempt of chunk c ended
)

// drive moves the chunks: per descriptor batch, per hop, it acquires the
// link, pays the per-transfer latency once (descriptor-ring setup), drives
// up to MaxInflight chunks back to back, and releases the link so queued
// traffic interleaves before the next batch. It runs until it must wait;
// the wait's event calls it again.
func (ct *ChunkedTransfer) drive() {
	env := ct.m.Env
	for {
		h := &ct.rt.hops[ct.hi]
		l := h.l
		switch ct.stage {
		case ctAcquire:
			ct.hopStart = env.Now()
			ct.stage = ctSetup
			if !l.sem.AcquireFunc(1, ct.step) {
				return
			}
		case ctSetup:
			ct.sp = l.beginService(nil, ct.hopStart, "dma-chunks")
			ct.c = 0
			ct.stage = ctChunk
			if !env.SleepFunc(l.Latency, ct.step) {
				return
			}
		case ctChunk:
			size := ct.chunkSize(ct.first + ct.c)
			ct.dma = size >= ct.cfg.DMAThreshold
			ct.wire = l.wireTime(size, ct.dma)
			ct.svcStart = env.Now()
			ct.attempt = 0
			ct.stage = ctWire
			if !env.SleepFunc(ct.wire, ct.step) {
				return
			}
		case ctWire:
			if l.lost(ct.attempt, ct.dma) {
				ct.attempt++
				if !env.SleepFunc(ct.wire, ct.step) {
					return
				}
				continue
			}
			l.account(ct.chunkSize(ct.first+ct.c), ct.wire*time.Duration(ct.attempt+1))
			if ct.hi == ct.rt.n-1 {
				if l.pf != nil {
					ct.recs = append(ct.recs, chunkRec{l: l, svcStart: ct.svcStart, end: env.Now(), dma: ct.dma})
				}
				ct.land()
			}
			ct.stage = ctChunk
			if ct.c++; ct.c < min(ct.cfg.MaxInflight, ct.n-ct.first) {
				continue
			}
			l.endService(ct.sp, nil, "", 0)
			l.sem.Release(1)
			ct.m.heatBoundary(h.from, h.to, env.Now()-ct.hopStart)
			ct.stage = ctAcquire
			if ct.hi++; ct.hi < ct.rt.n {
				continue
			}
			ct.hi = 0
			if ct.first += ct.cfg.MaxInflight; ct.first >= ct.n {
				ct.recycle()
				return
			}
		}
	}
}

// land completes one chunk: it wakes, in registration order, the readers
// this chunk satisfies and keeps the rest parked. The last chunk runs the
// completion callbacks; the driver recycles the transfer after its step.
func (ct *ChunkedTransfer) land() {
	ct.landed++
	ct.done = ct.landed == ct.n
	m := ct.m
	waiting := ct.readers[:0]
	for _, r := range ct.readers {
		if r.need <= ct.landed {
			r.ev.Signal()
			r.next = m.freeReader
			m.freeReader = r
		} else {
			waiting = append(waiting, r)
		}
	}
	clear(ct.readers[len(waiting):])
	ct.readers = waiting
	if ct.done {
		for i, fn := range ct.onComplete {
			ct.onComplete[i] = nil
			fn()
		}
		ct.onComplete = ct.onComplete[:0]
	}
}

// WaitRange parks p until the chunks covering [0, upTo) have landed, and
// resumes it exactly once, at the landing of the last of them. upTo <= 0 or
// beyond the transfer waits for everything. When the final hop's link has a
// profiler, the blocked time is charged to p's node chunk by chunk (see
// chargeWait), before p lets the transfer go.
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
	if ct.landed >= need {
		return
	}
	m := ct.m
	r := m.freeReader
	if r == nil {
		r = &chunkReader{ev: *sim.NewEvent(m.Env)}
	} else {
		m.freeReader = r.next
		r.next = nil
		r.ev.Reset()
	}
	r.need = need
	ct.readers = append(ct.readers, r)
	ct.parked++
	from := p.Now()
	r.ev.Wait(p)
	ct.chargeWait(p, from, p.Now())
	if ct.parked--; ct.done {
		ct.recycle()
	}
}

// chargeWait attributes a reader's blocked interval [from, to] to the
// profiler under key: each landed chunk's service window is charged to the
// link's dma-chunk (or sync-copy, for unpromoted chunks) component, and
// everything between — descriptor setup, semaphore gaps where other traffic
// interleaved, time before service began — to the chunk-queue component.
// The interval is fully partitioned, so demand-fetch attribution coverage
// stays complete. Charging is per reader: two readers waiting on the same
// transfer each charge their own blocked time, matching how access latency
// itself is accounted.
func (ct *ChunkedTransfer) chargeWait(key any, from, to time.Duration) {
	main := ct.rt.hops[ct.rt.n-1].l
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
