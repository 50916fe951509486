package experiments

import (
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/guest"
	"repro/internal/sim"
	"repro/internal/virtio"
	"repro/internal/workload"
)

// BatchingRow is one sweep setting's notification accounting and Table-2
// metrics on the slice-streaming stress.
type BatchingRow struct {
	// Label names the batch-window setting.
	Label string
	// MaxWindow is the configured window cap (0 = batching off).
	MaxWindow time.Duration

	// Ops is the total device operations executed; Notifications is every
	// guest<->host transition the run paid: virtqueue kicks, delivered
	// completion IRQs, and two transitions per coherence transaction
	// (doorbell out, completion back) — batched pushes share one
	// transaction, demand fetches always pay their own.
	Ops           int
	Notifications int
	NotifPerOp    float64

	Kicks, ElidedKicks       int
	IRQsDelivered, Coalesced int
	// Pushes/Batches mirror svm.Stats: with batching off Batches ==
	// Pushes.
	Pushes, Batches int
	// AvgBatch is Pushes/Batches.
	AvgBatch float64
	// PiggybackedFences counts signal fences that rode a push batch's
	// completion instead of their own IRQ.
	PiggybackedFences int

	DemandFetches int

	// Table-2 metrics for this setting (delta columns in FormatBatching).
	AccessMeanMS    float64
	AccessP99MS     float64
	CoherenceMeanMS float64
	ThroughputGBs   float64
}

// BatchingResult is the `-exp batching` report: the window sweep plus the
// Fig. 16 demand-fetch guardrail (batching must not slow the
// latency-sensitive path; acceptance bound is a 5% mean regression).
type BatchingResult struct {
	Rows []BatchingRow
	// GuardOff/GuardOn are Fig. 16 (write-invalidate, all demand fetches)
	// with batching off and on; GuardRegressionPct is the mean-latency
	// regression batching introduces there.
	GuardOff, GuardOn  *Fig16Result
	GuardRegressionPct float64
}

// runBatchingStress runs the slice-streaming stress under one batch config
// and returns its accounting row.
//
// The stress is a slice-parallel 4K decode: the codec writes 16 half-megapixel
// slices per frame back to back (a hardware decoder emits slices every
// ~180 us, well inside an adaptive window), the GPU reads them a frame later,
// and a display write closes each frame. Back-to-back submits exercise
// doorbell suppression, the end-of-frame waits exercise IRQ coalescing, and
// the slice pushes (codec DRAM -> GPU VRAM) exercise the coalescer.
func runBatchingStress(cfg Config, label string, preset emulator.Preset) BatchingRow {
	const slices = 16
	sliceW, sliceH := 3840, 2160/slices
	sliceBytes := workload.FrameBytes(sliceW, sliceH, 2)
	sliceMP := workload.MPixels(sliceW, sliceH)
	period := emulator.VSyncPeriod

	sess := workload.NewSession(preset, HighEnd.New, cfg.Seed+600)
	defer sess.Close()
	e := sess.Emulator
	stop := cfg.Duration

	e.Env.Spawn("batch-stress", func(p *sim.Proc) {
		// Two frames of slice buffers: the renderer works a frame behind
		// the decoder, so pushes have a frame period to land.
		q, err := guest.NewBufferQueue(p, e.HAL, 2*slices, sliceBytes)
		if err != nil {
			return
		}
		dispQ, err := guest.NewBufferQueue(p, e.HAL, 1,
			workload.FrameBytes(3840, 2160, 4))
		if err != nil {
			return
		}
		disp := dispQ.Dequeue(p)

		e.Env.Spawn("slice-decoder", func(dp *sim.Proc) {
			bufs := make([]*guest.Buffer, 0, slices)
			for frame := int64(0); dp.Now() < stop; frame++ {
				if wait := time.Duration(frame)*period - dp.Now(); wait > 0 {
					dp.Sleep(wait)
				}
				bufs = bufs[:0]
				for s := 0; s < slices; s++ {
					b := q.Dequeue(dp)
					b.Ticket = e.Codec.Submit(dp, device.Op{
						Kind: device.OpWrite, Region: b.Region,
						Bytes: sliceBytes, Exec: e.DecodeCost(sliceMP),
						Commands: 2,
					})
					bufs = append(bufs, b)
				}
				for _, b := range bufs {
					b.Ticket.Wait(dp)
				}
				for _, b := range bufs {
					q.Queue(dp, b)
				}
			}
		})

		// Renderer: read each slice on the GPU, then one display write per
		// frame ordered behind the last slice read.
		ins := make([]*guest.Buffer, 0, slices)
		for p.Now() < stop {
			ins = ins[:0]
			var last device.Ticket
			for s := 0; s < slices; s++ {
				in := q.Acquire(p)
				// Binding the slice as a texture is cheap; the full-frame
				// composite is priced on the display write below. (The codec
				// block and the 3D engine share the physical GPU, so heavy
				// per-slice renders would stretch the push spacing.)
				last = e.GPU.Submit(p, device.Op{
					Kind: device.OpRead, Region: in.Region,
					Bytes: sliceBytes, Exec: 50 * time.Microsecond,
					After: in.Ticket,
				})
				in.Ticket = last
				ins = append(ins, in)
			}
			dt := e.Display.Submit(p, device.Op{
				Kind: device.OpWrite, Region: disp.Region,
				Bytes: disp.Size, After: last,
				Exec: e.RenderCost(workload.MPixels(3840, 2160)),
			})
			dt.Wait(p)
			for _, in := range ins {
				q.Release(p, in)
			}
		}
	})
	e.Env.RunUntil(stop)

	row := BatchingRow{Label: label}
	if preset.Batch.Enabled {
		row.MaxWindow = preset.Batch.Resolved().MaxWindow
	}
	for _, d := range e.Devices() {
		ds := d.Stats()
		rs := d.Ring().Stats()
		row.Ops += ds.Executed
		row.Kicks += rs.Kicks
		row.ElidedKicks += rs.ElidedKicks
		row.IRQsDelivered += d.IRQ().Delivered()
		row.Coalesced += d.IRQ().Coalesced()
		row.PiggybackedFences += d.PiggybackedFences()
	}
	st := sess.SVMStats()
	row.Pushes = st.CoherencePushes
	row.Batches = st.CoherenceBatches
	row.DemandFetches = st.DemandFetches
	if row.Batches > 0 {
		row.AvgBatch = float64(row.Pushes) / float64(row.Batches)
	}
	row.Notifications = row.Kicks + row.IRQsDelivered +
		2*row.Batches + 2*row.DemandFetches
	if row.Ops > 0 {
		row.NotifPerOp = float64(row.Notifications) / float64(row.Ops)
	}
	row.AccessMeanMS = st.AccessLatency.Mean()
	row.AccessP99MS = st.AccessLatency.Percentile(99)
	row.CoherenceMeanMS = st.CoherenceCost.Mean()
	row.ThroughputGBs = st.Throughput(cfg.Duration) / 1e9
	return row
}

// RunBatching runs the notification-batching sweep (DESIGN.md §9): the
// slice-streaming stress across batch-window settings, then the Fig. 16
// demand-fetch guardrail with batching on versus off.
func RunBatching(cfg Config) *BatchingResult {
	// The window sweep: off, suppression-only (a 1 ns cap keeps the
	// doorbell/IRQ machinery on but gives the coalescer no window), two
	// fixed caps, and the adaptive default (2 ms cap, EWMA-driven). vSoC
	// completes ops through the shared fence page, so its IRQ lines stay
	// quiet; the two evt- rows show the interrupt-coalescing half of the
	// layer on a transport that actually delivers completion IRQs.
	settings := []struct {
		label string
		batch virtio.BatchConfig
		evt   bool
	}{
		{"off", virtio.BatchConfig{}, false},
		{"suppress", virtio.BatchConfig{Enabled: true, MaxWindow: time.Nanosecond}, false},
		{"cap-200us", virtio.BatchConfig{Enabled: true, MaxWindow: 200 * time.Microsecond}, false},
		{"cap-500us", virtio.BatchConfig{Enabled: true, MaxWindow: 500 * time.Microsecond}, false},
		{"adaptive", virtio.EnabledBatch(), false},
		{"evt-off", virtio.BatchConfig{}, true},
		{"evt-adaptive", virtio.EnabledBatch(), true},
	}
	rows := ParMap(cfg.EffectiveWorkers(), len(settings), func(i int) BatchingRow {
		s := settings[i]
		p := emulator.VSoC()
		p.Batch = s.batch
		if s.evt {
			p.Ordering = device.ModeEventDriven
		}
		return runBatchingStress(cfg, s.label, p)
	})
	out := &BatchingResult{Rows: rows}

	// Guardrail runs fan out internally, so they stay sequential here.
	out.GuardOff = runMicroPreset(cfg, emulator.VSoCNoPrefetch(), false).Fig16
	bp := emulator.VSoCNoPrefetch()
	bp.Batch = virtio.EnabledBatch()
	out.GuardOn = runMicroPreset(cfg, bp, false).Fig16
	if out.GuardOff.MeanMS > 0 {
		out.GuardRegressionPct = (out.GuardOn.MeanMS - out.GuardOff.MeanMS) /
			out.GuardOff.MeanMS * 100
	}
	return out
}
