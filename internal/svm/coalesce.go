package svm

import (
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/virtio"
)

// This file implements coherence push coalescing, the SVM half of the
// adaptive notification-batching layer (DESIGN.md §9). Prefetch and
// broadcast pushes destined for the same memory domain within a virtual-time
// window ride one transport transaction: one doorbell, one completion IRQ,
// and one CoherenceFixedCost for the whole batch instead of per push. The
// window is sized per destination domain by virtio.AdaptiveWindow from the
// observed batch round trips, and collapses to zero while demand fetches
// show latency-sensitive readers are active.

// batchItem is one coherence push riding a batch.
type batchItem struct {
	r            *Region
	from         *hostsim.Domain
	bytes        hostsim.Bytes
	version      uint64
	inf          *inflightFetch
	recordTiming bool
}

// PushBatch is one coalesced group of coherence pushes toward a single
// destination domain. The device layer piggybacks fence signals onto its
// completion (the batch's completion IRQ carries them for free).
type PushBatch struct {
	dest     *hostsim.Domain
	items    []batchItem
	timer    sim.Timer
	hasTimer bool
	started  bool
	complete bool
	// node is the batch's wait-for graph vertex; its base component
	// "svm:coalesce-window" absorbs the open-window parking time.
	node *prof.Node
	// callbacks run in the batch proc's context right after the last item
	// completes (fence piggybacking).
	callbacks []func()
}

// OnComplete registers fn to run when the batch completes; if it already
// has, fn runs immediately in the caller's context.
func (b *PushBatch) OnComplete(fn func()) {
	if b.complete {
		fn()
		return
	}
	b.callbacks = append(b.callbacks, fn)
}

// pushCoalescer holds the open (not yet dispatched) batch and the adaptive
// window of each destination domain. Created only when batching is enabled;
// a nil coalescer means every push dispatches on its own, exactly as before
// the batching layer existed.
type pushCoalescer struct {
	m       *Manager
	cfg     virtio.BatchConfig
	pending map[*hostsim.Domain]*PushBatch
	win     map[*hostsim.Domain]*virtio.AdaptiveWindow

	// writeBatches collects the batches touched by the write commit in
	// progress, handed to the device layer through EndInfo for fence
	// piggybacking. Scratch, reset at each write commit.
	writeBatches []*PushBatch

	// Registered only when batching is on: the metrics dump prints every
	// registered metric, and batching off must stay byte-identical.
	batchCtr *obs.Counter
	coalCtr  *obs.Counter
	sizeHist *obs.Histogram
}

func newPushCoalescer(m *Manager, cfg virtio.BatchConfig) *pushCoalescer {
	c := &pushCoalescer{
		m:       m,
		cfg:     cfg.Resolved(),
		pending: make(map[*hostsim.Domain]*PushBatch),
		win:     make(map[*hostsim.Domain]*virtio.AdaptiveWindow),
	}
	reg := m.env.Metrics()
	c.batchCtr = reg.Counter("svm.push_batches")
	c.coalCtr = reg.Counter("svm.pushes_coalesced")
	c.sizeHist = reg.Histogram("svm.push_batch_size")
	return c
}

// windowFor interns the adaptive window of one destination domain.
func (c *pushCoalescer) windowFor(dom *hostsim.Domain) *virtio.AdaptiveWindow {
	w, ok := c.win[dom]
	if !ok {
		w = virtio.NewAdaptiveWindow(c.cfg)
		c.win[dom] = w
	}
	return w
}

// enqueue adds one push toward dom, opening a batch if none is pending.
// The caller has already checked the region's inflight guard; enqueue
// installs the inflight entry so readers can wait on it.
func (c *pushCoalescer) enqueue(r *Region, from, dom *hostsim.Domain,
	bytes hostsim.Bytes, recordTiming bool) *PushBatch {

	m := c.m
	inf := &inflightFetch{done: sim.NewEvent(m.env), version: r.version, started: m.env.Now()}
	r.inflight[dom] = inf
	m.stats.CoherencePushes++
	it := batchItem{r: r, from: from, bytes: bytes, version: r.version,
		inf: inf, recordTiming: recordTiming}

	if b := c.pending[dom]; b != nil {
		inf.node = b.node
		b.items = append(b.items, it)
		m.stats.PushesCoalesced++
		c.coalCtr.Inc()
		if len(b.items) >= c.cfg.MaxBatch {
			c.flush(dom)
		}
		return b
	}
	b := &PushBatch{dest: dom, items: []batchItem{it}}
	if m.pf != nil {
		b.node = m.pf.NewNode("svm:push-batch", "svm:coalesce-window")
		inf.node = b.node
	}
	c.pending[dom] = b
	win := c.windowFor(dom).Window(m.env.Now())
	if win <= 0 {
		// Cold window or under pressure: dispatch immediately. A batch of
		// one carries no header — it costs exactly what the unbatched push
		// would.
		c.flush(dom)
	} else {
		b.hasTimer = true
		b.timer = m.env.AfterFunc(win, func() {
			if c.pending[dom] == b {
				c.flush(dom)
			}
		})
	}
	return b
}

// expedite dispatches dom's pending batch now — a reader is blocked on one
// of its pushes — and records the latency pressure.
func (c *pushCoalescer) expedite(dom *hostsim.Domain) {
	c.windowFor(dom).Pressure(c.m.env.Now())
	c.flush(dom)
}

// pressure records a demand fetch toward dom: latency-sensitive readers are
// active there, so the window collapses to zero for PressureHold.
func (c *pushCoalescer) pressure(dom *hostsim.Domain) {
	c.windowFor(dom).Pressure(c.m.env.Now())
}

// flush dispatches dom's pending batch, if any: one transport transaction
// whose fixed cost is charged once, with each item's copy run in order.
func (c *pushCoalescer) flush(dom *hostsim.Domain) {
	b := c.pending[dom]
	if b == nil {
		return
	}
	delete(c.pending, dom)
	if b.hasTimer {
		b.timer.Stop()
	}
	b.started = true
	m := c.m
	m.stats.CoherenceBatches++
	c.batchCtr.Inc()
	c.sizeHist.Observe(float64(len(b.items)))
	if m.tr != nil {
		m.tr.Count(m.prefTk, "push-batch-size", float64(len(b.items)))
	}
	m.env.Spawn("svm-push-batch", func(hp *sim.Proc) {
		start := hp.Now()
		var asp obs.AsyncSpan
		if m.tr != nil {
			asp = m.tr.BeginAsync(m.prefTk, "push-batch:"+dom.Name)
		}
		if m.pf != nil {
			m.pf.Bind(hp, b.node)
		}
		for i := range b.items {
			it := &b.items[i]
			// The batch header (CoherenceFixedCost) is charged on the first
			// item only; the rest ride the same transaction.
			elapsed := m.copyCoherenceOpts(hp, it.from, dom, it.bytes, true, false, i > 0)
			m.completePush(it.r, dom, it.version, it.bytes, it.recordTiming, elapsed, it.inf)
		}
		if m.tr != nil {
			m.tr.EndAsync(m.prefTk, asp)
		}
		if m.pf != nil {
			m.pf.Finish(b.node)
			m.pf.Bind(hp, nil)
		}
		// The batch round trip is the notify->completion time the next
		// window is sized from.
		c.windowFor(dom).ObserveRTT(hp.Now() - start)
		b.complete = true
		cbs := b.callbacks
		b.callbacks = nil
		for _, fn := range cbs {
			fn()
		}
	})
}

// beginWrite resets the per-commit batch collection.
func (c *pushCoalescer) beginWrite() { c.writeBatches = c.writeBatches[:0] }

// noteWriteBatch records a batch touched by the commit in progress.
func (c *pushCoalescer) noteWriteBatch(b *PushBatch) {
	for _, x := range c.writeBatches {
		if x == b {
			return
		}
	}
	c.writeBatches = append(c.writeBatches, b)
}

// takeWriteBatches returns the batches the finished commit pushed into
// (nil when none), leaving the scratch ready for the next commit.
func (c *pushCoalescer) takeWriteBatches() []*PushBatch {
	if len(c.writeBatches) == 0 {
		return nil
	}
	out := make([]*PushBatch, len(c.writeBatches))
	copy(out, c.writeBatches)
	return out
}
