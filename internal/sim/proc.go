//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

type procState int

const (
	procReady procState = iota
	procDone
)

// procKilled is the panic value used to unwind an aborted process.
type procKilled struct{}

// Proc is a simulation process: a sequential activity over virtual time.
// All Proc methods must be called from the process's own function.
type Proc struct {
	env   *Env
	name  string
	c     *carrier // the coroutine running this process
	state procState
}

// carrier is a pooled runtime coroutine that runs process functions one
// after another. Only the driver resumes it; it suspends in park, or
// between processes while it sits in the Env's free pool. Close stops it,
// which makes a pending yield report false.
type carrier struct {
	p     *Proc         // the process assigned to this carrier; nil while free
	fn    func(p *Proc) // p's body until it starts
	next  func() (struct{}, bool)
	stop  func() // nil until the first resume creates the coroutine
	yield func(struct{}) bool
}

// Spawn starts fn as a new process at the current instant. The process
// begins executing when the scheduler reaches its start event.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt starts fn as a new process at absolute time at. It reuses a free
// carrier when one is pooled, so steady-state process churn creates no
// coroutines.
func (e *Env) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	c := e.freeCarrier()
	p := &Proc{env: e, name: name, c: c}
	c.p, c.fn = p, fn
	e.schedule(at, p, nil)
	return p
}

// freeCarrier pops the most recently freed carrier, creating one when the
// pool is empty.
func (e *Env) freeCarrier() *carrier {
	if n := len(e.carrierFree); n > 0 {
		c := e.carrierFree[n-1]
		e.carrierFree = e.carrierFree[:n-1]
		return c
	}
	c := &carrier{}
	e.carriers = append(e.carriers, c)
	return c
}

// resume runs the carrier until it yields. The coroutine is created on the
// first resume, so building a model spawns no goroutines and a process
// that never starts never gets one.
func (c *carrier) resume() {
	if c.next == nil {
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.next()
}

// loop is the carrier's coroutine body: run the assigned process, then
// rejoin the free pool and dispatch on. The carrier is pooled before it
// dispatches, so a process spawned by one of those events can start on it
// straight away.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.p
		if !c.run(p) {
			return // aborted by Close
		}
		e := p.env
		c.p = nil
		e.carrierFree = append(e.carrierFree, c)
		e.hand = e.dispatch(p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes p's body, reporting whether it finished rather than being
// aborted. A panic in the process's own code leaves the coroutine and
// surfaces from the driver's resume, naming the process.
func (c *carrier) run(p *Proc) (finished bool) {
	defer func() {
		p.state = procDone
		if r := recover(); r != nil && r != any(procKilled{}) {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	fn := c.fn
	c.fn = nil
	fn(p)
	return true
}

// park gives up control until the process's next resume. Every blocking
// primitive funnels through park after registering a wakeup. The parking
// process dispatches the following events itself: when the next one is its
// own wakeup, park returns with no switch at all; otherwise it records the
// handoff for the driver and yields, and the driver resumes whichever
// process now holds the baton.
func (p *Proc) park() {
	e := p.env
	h := e.dispatch(p)
	if h == batonKept {
		return
	}
	e.hand = h
	if !p.c.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Sleep blocks the process for d of virtual time. Negative durations sleep
// zero time but still yield, preserving FIFO fairness at the same instant.
func (p *Proc) Sleep(d Time) {
	if p.env.currentProc() != p {
		panic("sim: Sleep called from a different process")
	}
	p.env.schedule(p.env.now+d, p, nil)
	p.park()
}

func (p *Proc) String() string { return "proc:" + p.name }
