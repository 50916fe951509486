package hostsim

import (
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// Link is a transfer path between two memory domains with finite bandwidth.
// Transfers serialize FIFO on the link, so contention appears as queueing
// delay — the behaviour that makes concurrent coherence traffic slow each
// other down, as the paper's bandwidth-waste argument requires (§2.4).
type Link struct {
	Name      string
	Bandwidth float64 // bytes per second, asynchronous/DMA path
	// SyncBandwidth is the bytes-per-second achieved by synchronous,
	// CPU-driven copies (e.g. a blocking glTexSubImage upload staging
	// through the driver, vs an asynchronous DMA transfer). Defaults to
	// Bandwidth; PCIe-class links set it far lower. This asymmetry is why
	// demand-fetch coherence blocks for tens of milliseconds while the
	// prefetch engine's DMA pushes take ~1-2 ms (§5.2, Fig. 16).
	SyncBandwidth float64
	Latency       time.Duration // fixed per-transfer setup cost
	sem           *sim.Semaphore
	moved         Bytes // total bytes carried (telemetry)
	busy          time.Duration

	// degrade scales both bandwidths in (0,1]; 1 means nominal. The fault
	// layer drives it to model congestion and partial link failure. The
	// Bandwidth fields always keep the configured nominal values so
	// callers can still reason about the healthy link.
	degrade float64
	// shared is a second multiplicative bandwidth scale in (0,1], driven by
	// the cross-guest SharedHost arbiter (DESIGN.md §12): when several guest
	// machines' PCIe links overdraw one physical host's budget, each gets a
	// fair fraction for the next arbitration window. Kept separate from
	// degrade so fault injection and farm contention compose instead of
	// clobbering each other. At its default of 1 every rate computation is
	// float-exact against builds without the arbiter.
	shared float64
	// dmaLoss is the per-attempt probability that a DMA transfer is lost
	// and must be re-driven; lossRng decides, seeded by the fault layer.
	dmaLoss float64
	lossRng *rand.Rand
	retries int
	// giveups counts transfers that exhausted maxDMARetries re-drives and
	// proceeded anyway; each one is also a metrics count and a trace
	// instant, so exhausted retries are visible instead of silent.
	giveups int

	tr       *obs.Tracer
	tk       obs.Track
	degGauge *obs.Gauge

	// Critical-path profiler plus labels precomputed at construction so
	// the enabled path does not build strings per transfer.
	pf          *prof.Profiler
	lblQueue    string
	lblDMA      string
	lblSync     string
	lblChunkQ   string
	lblChunkDMA string
}

// maxDMARetries bounds re-drives of a lossy DMA transfer so an injected
// loss probability near 1 cannot stall the simulation forever.
const maxDMARetries = 8

// NewLink returns a link with the given bandwidth (bytes/second) and fixed
// per-transfer latency.
func NewLink(env *sim.Env, name string, bandwidth float64, latency time.Duration) *Link {
	if bandwidth <= 0 {
		panic("hostsim: link bandwidth must be positive")
	}
	l := &Link{Name: name, Bandwidth: bandwidth, SyncBandwidth: bandwidth,
		Latency: latency, sem: sim.NewSemaphore(env, 1), degrade: 1, shared: 1}
	if l.tr = env.Tracer(); l.tr != nil {
		l.tk = l.tr.Track("link:" + name)
	}
	if reg := env.Metrics(); reg != nil {
		reg.CounterFunc("link."+name+".bytes", func() int64 { return int64(l.moved) })
		reg.Count("link."+name+".dma_retries", &l.retries)
		reg.Count("link."+name+".dma_giveups", &l.giveups)
		l.degGauge = reg.Gauge("link." + name + ".degradation")
	}
	if l.pf = env.Profiler(); l.pf != nil {
		l.lblQueue = "link:" + name + ":queue"
		l.lblDMA = "link:" + name + ":dma"
		l.lblSync = "link:" + name + ":sync-copy"
		l.lblChunkQ = "link:" + name + ":chunk-queue"
		l.lblChunkDMA = "link:" + name + ":dma-chunk"
	}
	return l
}

// SetDegradation scales the link's effective bandwidth by f in (0,1];
// f = 1 restores nominal speed. Panics on a non-positive or >1 factor —
// a degradation cannot make a link faster than built.
func (l *Link) SetDegradation(f float64) {
	if f <= 0 || f > 1 {
		panic("hostsim: link degradation factor must be in (0,1]")
	}
	l.degrade = f
	if l.tr != nil {
		l.tr.Count(l.tk, "degradation", f)
	}
	if l.degGauge != nil {
		l.degGauge.Set(f)
	}
}

// SetSharedScale sets the cross-guest arbitration scale in (0,1]; 1 means
// the link has its full budget share. Driven at shard-group barriers by the
// SharedHost arbiter; composes multiplicatively with fault degradation.
func (l *Link) SetSharedScale(f float64) {
	if f <= 0 || f > 1 {
		panic("hostsim: link shared scale must be in (0,1]")
	}
	l.shared = f
	if l.tr != nil {
		l.tr.Count(l.tk, "shared_scale", f)
	}
}

// SharedScale returns the current cross-guest arbitration scale.
func (l *Link) SharedScale() float64 { return l.shared }

// rateScale is the effective bandwidth multiplier: fault degradation times
// the cross-guest arbitration share.
func (l *Link) rateScale() float64 { return l.degrade * l.shared }

// SetDMALoss installs a per-transfer loss probability for DMA transfers;
// lost transfers are re-driven (up to maxDMARetries times), so loss shows
// up as extra service time rather than corruption. rng must be owned by
// the (single-threaded) simulation driving this link; prob <= 0 disables.
func (l *Link) SetDMALoss(prob float64, rng *rand.Rand) {
	l.dmaLoss = prob
	l.lossRng = rng
}

// DMARetries returns how many lost DMA transfers were re-driven.
func (l *Link) DMARetries() int { return l.retries }

// DMAGiveUps returns how many transfers exhausted their retry budget and
// proceeded without a delivery re-check.
func (l *Link) DMAGiveUps() int { return l.giveups }

// noteRetry records one lost-and-re-driven DMA attempt.
func (l *Link) noteRetry() {
	l.retries++
	if l.tr != nil {
		l.tr.Instant(l.tk, "dma-retry")
	}
}

// noteGiveup records a transfer that hit maxDMARetries and stopped
// re-checking delivery. Detection never samples lossRng, so the random
// sequence — and every downstream simulation event — is unchanged by the
// accounting.
func (l *Link) noteGiveup() {
	l.giveups++
	if l.tr != nil {
		l.tr.Instant(l.tk, "dma-giveup")
	}
}

// The per-hop helpers below are the one copy of the link's service logic.
// Link.transfer, the process form, runs them in a process that blocks until
// its hop is done; RouteCopy and the ChunkedTransfer driver run them as
// callback chains (DESIGN.md §5). Each holder acquires and releases the
// link's semaphore itself. The observing helpers and the loss decision
// test their common case first, so on an unobserved, lossless link they
// inline to a compare.

// beginService starts a hop's service once the link is held. It charges
// the queueing since queuedAt to key's profiler node (a nil key charges
// nothing), opens the span, which covers service only, and samples the
// queue_depth counter: the holder plus the transfers queued behind it.
// Spans on one link track never overlap, because the semaphore serializes
// them FIFO.
func (l *Link) beginService(key any, queuedAt time.Duration, span string) obs.Span {
	if l.tr == nil && l.pf == nil {
		return obs.Span{}
	}
	return l.observeBegin(key, queuedAt, span)
}

func (l *Link) observeBegin(key any, queuedAt time.Duration, span string) obs.Span {
	if l.pf != nil && key != nil {
		l.pf.Charge(key, l.lblQueue, queuedAt)
	}
	if l.tr == nil {
		return obs.Span{}
	}
	sp := l.tr.Begin(l.tk, span)
	l.tr.Count(l.tk, "queue_depth", float64(l.sem.InUse()+int64(l.sem.Waiting())))
	return sp
}

// endService ends a hop's service before its holder releases the link: it
// closes the span and charges the service since svcStart to key's profiler
// node under comp (a nil key charges nothing).
func (l *Link) endService(sp obs.Span, key any, comp string, svcStart time.Duration) {
	if l.tr != nil || l.pf != nil {
		l.observeEnd(sp, key, comp, svcStart)
	}
}

func (l *Link) observeEnd(sp obs.Span, key any, comp string, svcStart time.Duration) {
	if l.tr != nil {
		l.tr.End(l.tk, sp)
	}
	if l.pf != nil && key != nil {
		l.pf.Charge(key, comp, svcStart)
	}
}

// wireTime returns the time size bytes spend on the wire at the DMA rate,
// or at the synchronous rate when dma is false, without the per-transfer
// latency.
func (l *Link) wireTime(size Bytes, dma bool) time.Duration {
	rate := l.SyncBandwidth
	if dma {
		rate = l.Bandwidth
	}
	return time.Duration(float64(size) / (rate * l.rateScale()) * float64(time.Second))
}

// lost decides the fate of a finished wire attempt (attempt counts from 0):
// true means injected DMA loss dropped it and it must be re-driven. Only
// DMA attempts on a lossy link can be lost.
func (l *Link) lost(attempt int, dma bool) bool {
	return dma && l.dmaLoss > 0 && l.lossRng != nil && l.redrive(attempt)
}

// redrive draws a lossy DMA attempt's fate. At most maxDMARetries re-drives
// are made; the attempt after the last one is given up on and counts as
// delivered.
func (l *Link) redrive(attempt int) bool {
	if attempt >= maxDMARetries {
		l.noteGiveup()
		return false
	}
	if l.lossRng.Float64() >= l.dmaLoss {
		return false
	}
	l.noteRetry()
	return true
}

// account adds delivered bytes and the service time they took.
func (l *Link) account(size Bytes, service time.Duration) {
	l.moved += size
	l.busy += service
}

// TransferTime returns the uncontended duration to move size bytes by DMA.
func (l *Link) TransferTime(size Bytes) time.Duration {
	return l.Latency + l.wireTime(size, true)
}

// SyncTransferTime returns the uncontended duration of a synchronous copy.
func (l *Link) SyncTransferTime(size Bytes) time.Duration {
	return l.Latency + l.wireTime(size, false)
}

// Transfer moves size bytes across the link by DMA, blocking p for queueing
// plus transfer time. It returns the total elapsed duration including
// queueing.
func (l *Link) Transfer(p *sim.Proc, size Bytes) time.Duration {
	elapsed, _ := l.transfer(p, size, false)
	return elapsed
}

// transfer is the process form of one hop: it returns the total elapsed
// time (including queueing) and the pure service (wire) time. Lost DMA
// attempts are re-driven; a sync copy is never lost.
func (l *Link) transfer(p *sim.Proc, size Bytes, sync bool) (time.Duration, time.Duration) {
	start := p.Now()
	l.sem.Acquire(p, 1)
	svcStart := p.Now()
	span, comp := "dma", l.lblDMA
	if sync {
		span, comp = "copy", l.lblSync
	}
	sp := l.beginService(p, start, span)
	d := l.TransferTime(size)
	if sync {
		d = l.SyncTransferTime(size)
	}
	var service time.Duration
	for attempt := 0; ; attempt++ {
		p.Sleep(d)
		service += d
		if !l.lost(attempt, !sync) {
			break
		}
	}
	l.endService(sp, p, comp, svcStart)
	l.sem.Release(1)
	l.account(size, service)
	return p.Now() - start, service
}

// BytesMoved returns the total bytes this link has carried.
func (l *Link) BytesMoved() Bytes { return l.moved }

// BusyTime returns the cumulative time the link spent transferring.
func (l *Link) BusyTime() time.Duration { return l.busy }
