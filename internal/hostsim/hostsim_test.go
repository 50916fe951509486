package hostsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

const (
	ms  = time.Millisecond
	GiB = 1024 * MiB
)

func TestLinkTransferTime(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLink(env, "test", float64(1*GiB), 1*ms)
	got := l.TransferTime(512 * MiB)
	want := 1*ms + 500*ms
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLink(env, "test", float64(1*GiB), 0)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("xfer", func(p *sim.Proc) {
			l.Transfer(p, 1*GiB)
			done[i] = p.Now()
		})
	}
	env.Run()
	if done[0] != 1*time.Second || done[1] != 2*time.Second {
		t.Fatalf("done = %v, want serialized 1s/2s", done)
	}
	if l.BytesMoved() != 2*GiB {
		t.Fatalf("BytesMoved = %d, want 2 GiB", l.BytesMoved())
	}
}

func TestDeviceExecOccupiesUnit(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	dom := &Domain{Name: "d", Kind: HostDRAM}
	dev := NewDevice(env, "cpu", DevCPU, dom, 1)
	var second time.Duration
	env.Spawn("a", func(p *sim.Proc) { dev.Exec(p, 10*ms) })
	env.Spawn("b", func(p *sim.Proc) {
		dev.Exec(p, 10*ms)
		second = p.Now()
	})
	env.Run()
	if second != 20*ms {
		t.Fatalf("second exec at %v, want 20ms (serialized)", second)
	}
}

func TestDeviceSpeedFactorStretchesWork(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	dom := &Domain{Name: "d", Kind: HostDRAM}
	dev := NewDevice(env, "cpu", DevCPU, dom, 1)
	dev.SetSpeedSource(func() float64 { return 0.5 })
	var elapsed time.Duration
	env.Spawn("a", func(p *sim.Proc) { elapsed = dev.Exec(p, 10*ms) })
	env.Run()
	if elapsed != 20*ms {
		t.Fatalf("elapsed = %v, want 20ms at half speed", elapsed)
	}
}

// pathTime estimates the uncontended duration to copy size bytes from one
// domain to another by DMA, routing via DRAM when no direct link exists.
func pathTime(m *Machine, from, to *Domain, size Bytes) (time.Duration, error) {
	if l := m.LinkBetween(from, to); l != nil {
		return l.TransferTime(size), nil
	}
	l1, l2 := m.LinkBetween(from, m.DRAM), m.LinkBetween(m.DRAM, to)
	if l1 == nil || l2 == nil {
		return 0, fmt.Errorf("hostsim: no path %s -> %s", from, to)
	}
	return l1.TransferTime(size) + l2.TransferTime(size), nil
}

// totalBytesMoved sums the bytes carried across every link.
func totalBytesMoved(m *Machine) Bytes {
	var total Bytes
	for _, l := range m.Links() {
		total += l.BytesMoved()
	}
	return total
}

func TestMachineDirectCopy(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	var d time.Duration
	env.Spawn("c", func(p *sim.Proc) { d, _ = m.CopyDetailed(p, m.DRAM, m.VRAM, 11*GiB, false) })
	env.Run()
	want := 25*time.Microsecond + 1*time.Second
	if d != want {
		t.Fatalf("copy took %v, want %v", d, want)
	}
}

func TestMachineRoutedCopyViaDRAM(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	if m.LinkBetween(m.Guest, m.VRAM) != nil {
		t.Fatal("guest->vram should have no direct link")
	}
	var d time.Duration
	env.Spawn("c", func(p *sim.Proc) { d, _ = m.CopyDetailed(p, m.Guest, m.VRAM, 24*MiB, false) })
	env.Run()
	// Two hops: guest->dram at 2.4 GiB/s plus dram->vram at 11 GiB/s.
	est, err := pathTime(m, m.Guest, m.VRAM, 24*MiB)
	if err != nil {
		t.Fatal(err)
	}
	if d != est {
		t.Fatalf("copy took %v, PathTime estimates %v", d, est)
	}
	if d < 9*ms || d > 15*ms {
		t.Fatalf("guest->vram 24 MiB took %v, want ~12ms", d)
	}
}

func TestBoundaryCopyCostDominatesDirectDMA(t *testing.T) {
	// The architectural heart of the paper: a UHD frame bounced through
	// guest memory costs several times more than direct host DMA.
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	const frame = 1659 * 10 * KiB // ~16.2 MiB, a UHD NV12-ish frame
	bounce, err := pathTime(m, m.Guest, m.VRAM, frame)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pathTime(m, m.DRAM, m.VRAM, frame)
	if err != nil {
		t.Fatal(err)
	}
	if bounce < 3*direct {
		t.Fatalf("bounce %v should be >=3x direct %v", bounce, direct)
	}
	if direct > 2*ms {
		t.Fatalf("direct DMA of a UHD frame = %v, want <2ms", direct)
	}
	if bounce < 5*ms || bounce > 10*ms {
		t.Fatalf("guest bounce of a UHD frame = %v, want 5-10ms (Fig. 5 regime)", bounce)
	}
}

func TestPathTimeNoRoute(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := NewMachine(env, "bare")
	if _, err := pathTime(m, m.DRAM, m.VRAM, MiB); err == nil {
		t.Fatal("want error for missing route")
	}
}

func TestThermalThrottleAndRecover(t *testing.T) {
	env := sim.NewEnv(1)
	th := NewThermal(env, 100*ms)
	th.HeatPerBusySecond = 10
	th.CoolPerSecond = 1
	th.Ambient = 40
	th.ThrottleAt = 50
	th.ResumeAt = 45
	th.ThrottledSpeed = 0.5
	defer env.Close()

	if th.SpeedFactor() != 1 {
		t.Fatal("should start at full speed")
	}
	// Saturate: 1 busy-second per second => +10 deg/s, minus 1 cooling.
	stop := false
	var feed func()
	feed = func() {
		if stop {
			return
		}
		th.AddWork(100 * ms)
		env.After(100*ms, feed)
	}
	env.After(100*ms, feed)
	env.RunUntil(2 * time.Second)
	if !th.Throttled() {
		t.Fatalf("not throttled after 2s at temp %.1f", th.Temperature())
	}
	if th.SpeedFactor() != 0.5 {
		t.Fatalf("SpeedFactor = %v, want 0.5", th.SpeedFactor())
	}
	// Cool down: stop feeding work.
	stop = true
	env.RunUntil(60 * time.Second)
	if th.Throttled() {
		t.Fatalf("still throttled after cooldown at temp %.1f", th.Temperature())
	}
	if th.Temperature() < th.Ambient-0.001 {
		t.Fatalf("cooled below ambient: %.1f", th.Temperature())
	}
}

func TestLaptopThrottlesUnderSustainedLoadDesktopDoesNot(t *testing.T) {
	run := func(m *Machine, env *sim.Env) bool {
		// Hammer the CPU with 2 saturated cores for 2 minutes.
		for i := 0; i < 2; i++ {
			env.Spawn("load", func(p *sim.Proc) {
				for p.Now() < 2*time.Minute {
					m.CPU.Exec(p, 10*ms)
				}
			})
		}
		env.RunUntil(2 * time.Minute)
		return m.Thermal != nil && m.Thermal.Throttled()
	}
	envL := sim.NewEnv(1)
	lap := MidEndLaptop(envL)
	if !run(lap, envL) {
		t.Errorf("laptop should throttle under sustained load (temp %.1f)", lap.Thermal.Temperature())
	}
	envL.Close()

	envD := sim.NewEnv(1)
	desk := HighEndDesktop(envD)
	if run(desk, envD) {
		t.Error("desktop should not throttle")
	}
	envD.Close()
}

func TestPerfCosts(t *testing.T) {
	p := Perf{
		HWDecodePerMP: 350 * time.Microsecond,
		SWDecodePerMP: 2400 * time.Microsecond,
		RenderPerMP:   120 * time.Microsecond,
		ISPGPUPerMP:   80 * time.Microsecond,
		ISPSWPerMP:    1500 * time.Microsecond,
	}
	const uhdMP = 3840 * 2160 / 1e6
	hw := p.DecodeCost(uhdMP, true)
	sw := p.DecodeCost(uhdMP, false)
	if hw >= sw {
		t.Fatal("hardware decode must be faster than software")
	}
	if hw < 2*ms || hw > 4*ms {
		t.Fatalf("UHD hw decode = %v, want ~3ms", hw)
	}
	if sw < 15*ms || sw > 25*ms {
		t.Fatalf("UHD sw decode = %v, want ~20ms", sw)
	}
	if r := p.RenderCost(uhdMP); r > 2*ms {
		t.Fatalf("UHD render = %v, want ~1ms", r)
	}
	if p.ISPCost(uhdMP, true) >= p.ISPCost(uhdMP, false) {
		t.Fatal("GPU ISP must beat software ISP")
	}
}

func TestQuickLinkTransferMonotonicInSize(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	l := NewLink(env, "q", float64(GiB), 1*ms)
	f := func(a, b uint32) bool {
		x, y := Bytes(a), Bytes(b)
		if x > y {
			x, y = y, x
		}
		return l.TransferTime(x) <= l.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPathTimeTriangle(t *testing.T) {
	// Routed path cost must equal the sum of its hops.
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	f := func(sz uint32) bool {
		size := Bytes(sz) + 1
		via, err := pathTime(m, m.Guest, m.VRAM, size)
		if err != nil {
			return false
		}
		h1, _ := pathTime(m, m.Guest, m.DRAM, size)
		h2, _ := pathTime(m, m.DRAM, m.VRAM, size)
		return math.Abs(float64(via-(h1+h2))) < float64(time.Microsecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMachinePresetsComplete(t *testing.T) {
	for _, mk := range []func(*sim.Env) *Machine{HighEndDesktop, MidEndLaptop} {
		env := sim.NewEnv(1)
		m := mk(env)
		if m.CPU == nil || m.GPU == nil || m.Camera == nil || m.NIC == nil {
			t.Fatalf("%s: missing devices", m.Name)
		}
		for _, pair := range [][2]*Domain{
			{m.DRAM, m.DRAM}, {m.DRAM, m.Guest}, {m.Guest, m.DRAM},
			{m.DRAM, m.VRAM}, {m.VRAM, m.DRAM}, {m.VRAM, m.VRAM},
			{m.CamBuf, m.DRAM}, {m.NICBuf, m.DRAM},
		} {
			if !(m.LinkBetween(pair[0], pair[1]) != nil) {
				t.Errorf("%s: missing link %s->%s", m.Name, pair[0], pair[1])
			}
		}
		if m.CameraLatency <= 0 {
			t.Errorf("%s: camera latency unset", m.Name)
		}
		env.Close()
	}
}

func TestCameraLatencyGapBetweenMachines(t *testing.T) {
	envD := sim.NewEnv(1)
	envL := sim.NewEnv(1)
	defer envD.Close()
	defer envL.Close()
	d, l := HighEndDesktop(envD), MidEndLaptop(envL)
	gap := d.CameraLatency - l.CameraLatency
	if gap != 10*ms {
		t.Fatalf("camera latency gap = %v, want 10ms (§5.3)", gap)
	}
}

func TestSyncTransferSlowerThanDMA(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	l := m.LinkBetween(m.DRAM, m.VRAM)
	if l == nil {
		t.Fatal("no pcie link")
	}
	const frame = 16 * MiB
	dma := l.TransferTime(frame)
	syn := l.SyncTransferTime(frame)
	if syn < 5*dma {
		t.Fatalf("sync transfer %v should be far slower than DMA %v (Fig. 16)", syn, dma)
	}
	var got time.Duration
	env.Spawn("x", func(p *sim.Proc) { got, _ = l.transfer(p, frame, true) })
	env.Run()
	if got != syn {
		t.Fatalf("sync transfer elapsed %v, want %v", got, syn)
	}
	if l.BusyTime() != syn {
		t.Fatalf("BusyTime = %v, want %v", l.BusyTime(), syn)
	}
}

func TestCopySyncAndDetailed(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	var elapsed, service time.Duration
	var syncElapsed time.Duration
	env.Spawn("x", func(p *sim.Proc) {
		elapsed, service = m.CopyDetailed(p, m.Guest, m.VRAM, 8*MiB, false)
		syncElapsed, _ = m.CopyDetailed(p, m.DRAM, m.VRAM, 8*MiB, true)
	})
	env.Run()
	if service <= 0 || service > elapsed {
		t.Fatalf("service %v vs elapsed %v", service, elapsed)
	}
	dmaTime, _ := pathTime(m, m.DRAM, m.VRAM, 8*MiB)
	if syncElapsed <= dmaTime {
		t.Fatalf("sync copy %v should exceed DMA estimate %v", syncElapsed, dmaTime)
	}
	if totalBytesMoved(m) != 3*8*MiB {
		t.Fatalf("TotalBytesMoved = %d, want 3 hops x 8 MiB", totalBytesMoved(m))
	}
	if len(m.Links()) == 0 {
		t.Fatal("Links() empty")
	}
}

func TestSwitchUserDetectsContextSwitches(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	dom := &Domain{Name: "d", Kind: GPUVRAM}
	gpu := NewDevice(env, "gpu", DevGPU, dom, 2)
	if !gpu.SwitchUser("render") {
		t.Fatal("first user is a switch")
	}
	if gpu.SwitchUser("render") {
		t.Fatal("same user is not a switch")
	}
	if !gpu.SwitchUser("display") {
		t.Fatal("new user is a switch")
	}
}

func TestPixel6aUnifiedMemory(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := Pixel6a(env)
	if m.VRAM != m.DRAM || m.Guest != m.DRAM || m.CamBuf != m.DRAM || m.NICBuf != m.DRAM {
		t.Fatal("Pixel domains must alias unified memory")
	}
	var d time.Duration
	env.Spawn("x", func(p *sim.Proc) { d, _ = m.CopyDetailed(p, m.Guest, m.VRAM, 16*MiB, false) })
	env.Run()
	if d > 2*ms {
		t.Fatalf("unified copy took %v, want ~memcpy speed", d)
	}
	if m.Thermal != nil {
		t.Fatal("phone thermal model out of scope")
	}
}

func TestStringers(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	if m.CPU.String() == "" || m.DRAM.String() == "" {
		t.Fatal("empty stringers")
	}
	if DevGPU.String() != "gpu" || HostDRAM.String() != "host-dram" {
		t.Fatal("kind names wrong")
	}
	if DomainKind(99).String() == "" {
		t.Fatal("unknown domain kind should still print")
	}
}
