package sim

import "fmt"

type resumeKind int

const (
	resumeOK resumeKind = iota
	resumeAbort
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
	env    *Env
	name   string
	resume chan resumeKind
	state  procState
}

// Spawn starts fn as a new process at the current instant. The process
// begins executing when the scheduler reaches its start event.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt starts fn as a new process at absolute time at.
func (e *Env) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	p := &Proc{env: e, name: name, resume: make(chan resumeKind)}
	e.procs[p] = struct{}{}
	go p.run(fn)
	e.schedule(at, p, nil)
	return p
}

func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		p.state = procDone
		if r := recover(); r != nil && r != any(procKilled{}) {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
		// Normal completion or abort: this goroutine dispatches until the
		// baton leaves it, then exits.
		if p.env.dispatch(p) == batonDone {
			p.env.sched <- struct{}{}
		}
	}()
	if k := <-p.resume; k == resumeAbort {
		panic(procKilled{})
	}
	fn(p)
}

// park gives up control until the process's next resume. Every blocking
// primitive funnels through park after registering a wakeup. The parking
// goroutine dispatches the following events itself: when the next one is
// this process's own wakeup, park returns with no goroutine switch at all;
// otherwise it passes control on — to the resumed process, or back to the
// driver at the run bound — and blocks.
func (p *Proc) park() {
	switch p.env.dispatch(p) {
	case batonKept:
		return
	case batonDone:
		p.env.sched <- struct{}{}
	}
	if k := <-p.resume; k == resumeAbort {
		panic(procKilled{})
	}
}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

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

// Yield cedes the processor until all other events at the current instant
// have run.
func (p *Proc) Yield() { p.Sleep(0) }

func (p *Proc) String() string { return "proc:" + p.name }
