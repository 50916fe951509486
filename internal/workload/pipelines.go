package workload

import (
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/guest"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

// startVideoProducer runs the media-service + codec-driver side of a video
// pipeline: dequeue a buffer, decode into it, stamp its PTS, queue it
// (Codec -> GPU -> Display, Table 1).
func startVideoProducer(e *emulator.Emulator, spec *Spec, q *guest.BufferQueue, stop time.Duration) {
	period := spec.FramePeriod()
	frameBytes := spec.VideoFrameBytes()
	mp := MPixels(spec.VideoW, spec.VideoH)
	e.Env.Spawn("media-service", func(p *sim.Proc) {
		for seq := int64(0); p.Now() < stop; seq++ {
			b := q.Dequeue(p)
			// Demux + MediaCodec bookkeeping on the guest CPU.
			e.Machine.CPU.Exec(p, 300*time.Microsecond)
			tk := e.Codec.Submit(p, device.Op{
				Kind: device.OpWrite, Region: b.Region, Bytes: frameBytes,
				Exec: e.DecodeCost(mp), Commands: 8,
			})
			// MediaCodec hands the output buffer to the app only when the
			// decode completes (host completion is visible through the
			// shared fence status, so this wait costs no transport).
			tk.Wait(p)
			b.Ticket = tk
			b.Seq = seq
			b.PTS = time.Duration(seq) * period
			q.Queue(b)
		}
	})
}

// startCameraPipeline sets up the capture and ISP stages of a camera
// pipeline (Camera -> ISP -> GPU -> Display, Table 1). It must be called
// from process context (it allocates the intermediate buffer queue).
// Captured frames carry the scene-event timestamp for motion-to-photon
// accounting.
func startCameraPipeline(p *sim.Proc, e *emulator.Emulator, spec *Spec, out *guest.BufferQueue, stop time.Duration) error {
	period := spec.FramePeriod()
	if cap := e.Preset.CameraFPSCap; cap > 0 && cap < spec.ContentFPS {
		// Webcam passthrough negotiated a lower delivery rate.
		period = time.Second / time.Duration(cap)
	}
	rawBytes := spec.VideoFrameBytes() // YUY2-ish sensor output
	mp := MPixels(spec.VideoW, spec.VideoH)

	camQ, err := guest.NewBufferQueue(p, e.HAL, spec.Buffers, rawBytes)
	if err != nil {
		return err
	}
	e.Env.Spawn("camera-service", func(cp *sim.Proc) {
		// Capture loop: real-time; frames are skipped when the pipeline
		// is backed up (cameras drop, they do not buffer).
		for seq := int64(0); cp.Now() < stop; seq++ {
			target := time.Duration(seq+1) * period
			if wait := target - cp.Now(); wait > 0 {
				cp.Sleep(wait)
			}
			b, ok := camQ.TryDequeue()
			if !ok {
				continue // sensor frame lost
			}
			// The scene event this frame first captured happened, on
			// average, half a capture period before the exposure, plus
			// the sensor latency (§5.3) and any host capture-stack
			// buffering, all before the write is even dispatched.
			b.SourceTime = cp.Now() - e.Machine.CameraLatency -
				e.Preset.CameraStackLatency - period/2
			tk := e.Camera.Submit(cp, device.Op{
				Kind: device.OpWrite, Region: b.Region, Bytes: rawBytes,
				Exec: 1 * time.Millisecond, // sensor readout
			})
			b.Ticket = tk
			b.Seq = seq
			b.PTS = time.Duration(seq) * period
			camQ.Queue(b)
		}
	})
	e.Env.Spawn("isp-stage", func(ip *sim.Proc) {
		for ip.Now() < stop {
			in := camQ.Acquire(ip)
			outB := out.Dequeue(ip)
			rt := e.ISP.Submit(ip, device.Op{
				Kind: device.OpRead, Region: in.Region, Bytes: rawBytes,
				Exec: e.ISPCost(mp), After: in.Ticket,
			})
			wt := e.ISP.Submit(ip, device.Op{
				Kind: device.OpWrite, Region: outB.Region, Bytes: outB.Size,
				Exec: 200 * time.Microsecond, After: rt,
			})
			outB.Ticket = wt
			outB.Seq = in.Seq
			outB.PTS = in.PTS
			outB.SourceTime = in.SourceTime
			wt.Wait(ip) // converted frame available
			camQ.Release(in)
			out.Queue(outB)
		}
	})
	return nil
}

// startLivestreamPipeline sets up the NIC and codec stages of a livestream
// pipeline (NIC -> Codec -> GPU -> Display, Table 1). Must be called from
// process context. Chunks carry the source-side event time (NetworkDelay
// ago) for latency accounting.
func startLivestreamPipeline(p *sim.Proc, e *emulator.Emulator, spec *Spec, out *guest.BufferQueue, stop time.Duration) error {
	period := spec.FramePeriod()
	// 300 Mbps at 60 FPS is ~640 KB of compressed data per frame (§2.3).
	chunkBytes := hostsim.Bytes(300e6/8) / hostsim.Bytes(spec.ContentFPS)
	frameBytes := spec.VideoFrameBytes()
	mp := MPixels(spec.VideoW, spec.VideoH)

	nicQ, err := guest.NewBufferQueue(p, e.HAL, spec.Buffers, chunkBytes)
	if err != nil {
		return err
	}
	e.Env.Spawn("nic-rx", func(np *sim.Proc) {
		for seq := int64(0); np.Now() < stop; seq++ {
			target := time.Duration(seq+1) * period
			if wait := target - np.Now(); wait > 0 {
				np.Sleep(wait)
			}
			b, ok := nicQ.TryDequeue()
			if !ok {
				continue // RTMP backpressure: chunk delayed/merged
			}
			b.SourceTime = np.Now() - spec.NetworkDelay - period/2
			tk := e.NIC.Submit(np, device.Op{
				Kind: device.OpWrite, Region: b.Region, Bytes: chunkBytes,
				Exec: 200 * time.Microsecond,
			})
			b.Ticket = tk
			b.Seq = seq
			b.PTS = time.Duration(seq) * period
			nicQ.Queue(b)
		}
	})
	e.Env.Spawn("stream-decoder", func(dp *sim.Proc) {
		for dp.Now() < stop {
			in := nicQ.Acquire(dp)
			outB := out.Dequeue(dp)
			rd := e.Codec.Submit(dp, device.Op{
				Kind: device.OpRead, Region: in.Region, Bytes: chunkBytes,
				Exec: 100 * time.Microsecond, After: in.Ticket,
			})
			wt := e.Codec.Submit(dp, device.Op{
				Kind: device.OpWrite, Region: outB.Region, Bytes: frameBytes,
				Exec: e.DecodeCost(mp), After: rd, Commands: 8,
			})
			outB.Ticket = wt
			outB.Seq = in.Seq
			outB.PTS = in.PTS
			outB.SourceTime = in.SourceTime
			wt.Wait(dp) // decoded frame available
			nicQ.Release(in)
			out.Queue(outB)
		}
	})
	return nil
}
