package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/sim"
	"repro/internal/virtio"
	"repro/internal/workload"
)

// batchCfg is long enough for the adaptive window to warm and the streaming
// steady state to dominate the warm-up frames.
func batchCfg() Config {
	return Config{Duration: 1500 * time.Millisecond, Seed: 1, Workers: 1}
}

// TestBatchingHalvesNotificationsPerOp pins the headline acceptance number:
// on the slice-streaming stress, adaptive batching must at least halve
// notifications per device op versus the unbatched transport.
func TestBatchingHalvesNotificationsPerOp(t *testing.T) {
	cfg := batchCfg()
	off := runBatchingStress(cfg, "off", emulator.VSoC())
	onPreset := emulator.VSoC()
	onPreset.Batch = virtio.EnabledBatch()
	on := runBatchingStress(cfg, "adaptive", onPreset)

	if off.Ops == 0 || on.Ops == 0 {
		t.Fatalf("stress executed no ops (off=%d on=%d)", off.Ops, on.Ops)
	}
	if off.NotifPerOp < 2*on.NotifPerOp {
		t.Fatalf("notifications/op off=%.3f on=%.3f, want >= 2x reduction",
			off.NotifPerOp, on.NotifPerOp)
	}
	// The reduction must come from the mechanisms the layer claims, not a
	// workload change: kicks elided, pushes coalesced, fences piggybacked.
	if on.ElidedKicks == 0 {
		t.Fatal("adaptive run elided no kicks")
	}
	if on.AvgBatch <= 1 || on.Batches >= on.Pushes {
		t.Fatalf("avg batch = %.2f (%d pushes in %d batches), want coalescing to engage",
			on.AvgBatch, on.Pushes, on.Batches)
	}
	if on.PiggybackedFences == 0 {
		t.Fatal("adaptive run piggybacked no fences")
	}
	if off.ElidedKicks != 0 || off.Batches != off.Pushes || off.PiggybackedFences != 0 {
		t.Fatalf("batching-off run shows batching activity: %+v", off)
	}
}

// TestBatchingStressDeterministic: equal seeds, equal rows — the batching
// layer (timers, EWMA windows, piggyback callbacks) must not break the
// simulator's determinism contract.
func TestBatchingStressDeterministic(t *testing.T) {
	cfg := batchCfg()
	preset := emulator.VSoC()
	preset.Batch = virtio.EnabledBatch()
	a := runBatchingStress(cfg, "adaptive", preset)
	b := runBatchingStress(cfg, "adaptive", preset)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs diverge:\n%+v\n%+v", a, b)
	}
}

// TestPiggybackedFenceSurvivesFaultWindow: a fence piggybacked onto a push
// batch that a collapsed DMA link stretches past the device watchdog must
// read as counted fence timeouts, not a stuck pipeline — and the pipeline
// must make progress again once the fault clears.
func TestPiggybackedFenceSurvivesFaultWindow(t *testing.T) {
	const (
		faultAt  = 200 * time.Millisecond
		faultFor = 300 * time.Millisecond
		stop     = time.Second
	)
	preset := emulator.VSoC()
	preset.Batch = virtio.EnabledBatch()
	preset.DeviceWatchdog = 10 * time.Millisecond
	sess := workload.NewSession(preset, HighEnd.New, 42)
	defer sess.Close()
	e := sess.Emulator
	mach := sess.Machine

	// The engine is deliberately NOT bound to the injector: bound, it
	// suspends prefetch at fault onset and no push ever meets the collapsed
	// link. Unbound, pushes keep flowing into the fault window, which is the
	// piggybacked-fence-on-a-stretched-batch case this test exists for.
	inj := faults.NewInjector(sess.Env, 42)
	// 2% residual capacity on the DRAM->VRAM DMA path: the ~2.5ms push
	// batches the codec fences piggyback on stretch to ~100ms, an order of
	// magnitude past the 10ms watchdog.
	inj.Schedule(faultAt, faultFor, faults.LinkCollapse(mach, mach.DRAM, mach.VRAM, 0.02))
	inj.Arm()

	frameBytes := workload.FrameBytes(1920, 1080, 4)
	var frames int
	var lastDone time.Duration
	e.Env.Spawn("fault-pipe", func(p *sim.Proc) {
		q, err := guest.NewBufferQueue(p, e.HAL, 2, frameBytes)
		if err != nil {
			t.Errorf("buffer queue: %v", err)
			return
		}
		for p.Now() < stop {
			b := q.Dequeue(p)
			b.Ticket = e.Codec.Submit(p, device.Op{
				Kind: device.OpWrite, Region: b.Region,
				Bytes: frameBytes, Exec: 2 * time.Millisecond,
			})
			q.Queue(p, b)
			in := q.Acquire(p)
			rt := e.GPU.Submit(p, device.Op{
				Kind: device.OpRead, Region: in.Region,
				Bytes: frameBytes, Exec: time.Millisecond,
				After: in.Ticket,
			})
			rt.Wait(p)
			q.Release(p, in)
			frames++
			lastDone = p.Now()
		}
	})
	e.Env.RunUntil(stop)

	var piggybacked int
	for _, d := range e.Devices() {
		piggybacked += d.PiggybackedFences()
	}
	timeouts, _ := deviceTotals(e)
	if piggybacked == 0 {
		t.Fatal("no fences piggybacked — the fault never hit the piggyback path")
	}
	if timeouts == 0 {
		t.Fatal("no fence timeouts — the stretched batch never tripped the watchdog")
	}
	if frames == 0 {
		t.Fatal("pipeline made no progress at all")
	}
	if lastDone <= faultAt+faultFor {
		t.Fatalf("last frame at %v, want progress after the fault window ends at %v",
			lastDone, faultAt+faultFor)
	}
}
