package prof

import (
	"strings"
	"testing"
	"time"
)

// fakeClock drives a profiler without a simulator.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) at(d time.Duration) { c.t = d }
func ms_(n int) time.Duration           { return time.Duration(n) * time.Millisecond }
func attach(pf *Profiler, c *fakeClock) { pf.SetNow(c.now) }

// buildFrame records a frame that waits on an op which splits its time
// between queueing, exec, and a throttle stretch, then finishes 2ms of
// its own work before presenting.
func buildFrame(pf *Profiler, c *fakeClock) {
	c.at(0)
	frame := pf.NewNode("frame", "app")
	pf.Bind("guest", frame)

	// Op dispatched at t=0, picked up at t=1 (ring:queued base), runs
	// exec 1..5, throttle stretch 5..7.
	op := pf.NewNode("gpu:op", "ring:queued")
	c.at(ms_(1))
	pf.Bind("host", op)
	c.at(ms_(5))
	pf.Charge("host", "dev:gpu:exec", ms_(1))
	c.at(ms_(7))
	pf.Charge("host", "dev:gpu:throttle", ms_(5))
	pf.Finish(op)
	pf.Bind("host", nil)

	// Guest waited on the op 0..7, then worked 7..9, presented at 9.
	c.at(ms_(7))
	pf.Wait("guest", "fence:wait", 0, op)
	c.at(ms_(9))
	pf.Charge("guest", "app:work", ms_(7))
	pf.SetCompleting(nil)
	pf.FrameDone(frame, ms_(9))
	pf.Bind("guest", nil)
}

func TestCriticalPathWalk(t *testing.T) {
	c := &fakeClock{}
	pf := New()
	attach(pf, c)
	buildFrame(pf, c)
	rep := pf.Report()

	if rep.Frames != 1 {
		t.Fatalf("Frames = %d, want 1", rep.Frames)
	}
	if rep.Total != ms_(9) {
		t.Fatalf("Total = %v, want 9ms", rep.Total)
	}
	want := map[string]time.Duration{
		"ring:queued":      ms_(1), // dispatch → host pickup
		"dev:gpu:exec":     ms_(4),
		"dev:gpu:throttle": ms_(2),
		"app:work":         ms_(2),
	}
	var sum time.Duration
	for comp, d := range want {
		if got := rep.Comps[comp]; got != d {
			t.Errorf("Comps[%q] = %v, want %v", comp, got, d)
		}
		sum += d
	}
	if sum != rep.Total {
		t.Errorf("attributed %v != total %v", sum, rep.Total)
	}
	if got := rep.Comps["fence:wait"]; got != 0 {
		t.Errorf("fence:wait charged %v; the walk should descend into the op instead", got)
	}
	if len(rep.Top) != 1 || rep.Top[0].Latency() != ms_(9) {
		t.Fatalf("Top = %+v, want one 9ms frame", rep.Top)
	}
}

// TestWalkResidual: when the dependency completes before the wait ends,
// the residue (notification latency) charges to the wait component.
func TestWalkResidual(t *testing.T) {
	c := &fakeClock{}
	pf := New()
	attach(pf, c)

	frame := pf.NewNode("frame", "app")
	pf.Bind("g", frame)
	dep := pf.NewNode("op", "ring:queued")
	c.at(ms_(3))
	pf.Finish(dep) // op done at 3
	c.at(ms_(5))   // waiter wakes at 5 → 2ms residue
	pf.Wait("g", "irq:wait", 0, dep)
	pf.FrameDone(frame, ms_(5))

	rep := pf.Report()
	if got := rep.Comps["irq:wait"]; got != ms_(2) {
		t.Errorf("irq:wait = %v, want 2ms residue", got)
	}
	if got := rep.Comps["ring:queued"]; got != ms_(3) {
		t.Errorf("ring:queued = %v, want 3ms (op base)", got)
	}
}

func TestClassCoverage(t *testing.T) {
	c := &fakeClock{}
	pf := New()
	attach(pf, c)

	pf.BeginClass("p", "demand-fetch")
	c.at(ms_(2))
	pf.Charge("p", "link:pcie-h2d:sync-copy", 0)
	c.at(ms_(3))
	pf.Charge("p", "svm:coherence-fixed", ms_(2))
	c.at(ms_(4)) // 1ms unattributed
	pf.EndClass("p")

	cov, dom := pf.Report().ClassCoverage("demand-fetch")
	if dom != "link:pcie-h2d:sync-copy" {
		t.Errorf("dominant = %q", dom)
	}
	if cov < 0.74 || cov > 0.76 {
		t.Errorf("coverage = %v, want 0.75", cov)
	}
	if cs := pf.Report().Classes["demand-fetch"]; cs.Count != 1 || cs.Total != ms_(4) {
		t.Errorf("class stat = %+v", cs)
	}
}

// folded renders a report's folded stacks as a string.
func folded(r *Report) string {
	var b strings.Builder
	_ = r.WriteFolded(&b)
	return b.String()
}

func TestFoldedDeterministic(t *testing.T) {
	render := func() string {
		c := &fakeClock{}
		pf := New()
		attach(pf, c)
		buildFrame(pf, c)
		return folded(pf.Report())
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("folded output not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("folded output empty")
	}
}

func TestMergeOrderIndependentOfContent(t *testing.T) {
	c := &fakeClock{}
	a := New()
	attach(a, c)
	buildFrame(a, c)
	a.Report().Retag("uhd/0")

	c2 := &fakeClock{}
	b := New()
	attach(b, c2)
	buildFrame(b, c2)
	b.Report().Retag("uhd/1")

	m := newReport()
	m.Merge(a.Report())
	m.Merge(b.Report())
	if m.Frames != 2 || m.Total != ms_(18) {
		t.Fatalf("merged frames=%d total=%v", m.Frames, m.Total)
	}
	if got := m.Comps["dev:gpu:exec"]; got != ms_(8) {
		t.Errorf("merged exec = %v, want 8ms", got)
	}
	if len(m.Top) != 2 || m.Top[0].Label != "uhd/0/frame#1" {
		t.Errorf("merged top = %+v", m.Top)
	}
}

// TestNilSafety: the disabled profiler accepts every call.
func TestNilSafety(t *testing.T) {
	var pf *Profiler
	pf.SetNow(func() time.Duration { return 0 })
	n := pf.NewNode("x", "b")
	if n != nil {
		t.Fatal("nil profiler returned a node")
	}
	pf.Bind("k", n)
	pf.Charge("k", "c", 0)
	pf.ChargeSpan("k", "c", 0, 1)
	pf.Wait("k", "c", 0, nil)
	pf.Finish(nil)
	pf.BeginClass("k", "cl")
	pf.EndClass("k")
	pf.SetCompleting(nil)
	pf.FrameDone(nil, 0)
	if pf.Report() != nil {
		t.Fatal("nil profiler returned a report")
	}
	var r *Report
	r.Merge(nil)
	r.Retag("x")
	if err := r.WriteFolded(nil); err != nil {
		t.Fatal(err)
	}
	if cov, dom := r.ClassCoverage("x"); cov != 0 || dom != "" {
		t.Fatal("nil report coverage not zero")
	}
}

// TestDisabledPathZeroAlloc mirrors the obs contract: with a nil
// profiler, the instrumented call pattern must not allocate.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var pf *Profiler
	key := &struct{ x int }{} // stands in for a *sim.Proc
	allocs := testing.AllocsPerRun(200, func() {
		n := pf.NewNode("frame", "app")
		pf.Bind(key, n)
		pf.Charge(key, "comp", 0)
		pf.Wait(key, "wait", 0, nil)
		pf.BeginClass(key, "demand-fetch")
		pf.EndClass(key)
		pf.Finish(n)
		pf.FrameDone(n, 0)
		pf.Bind(key, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}
