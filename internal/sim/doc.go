// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock and a set of processes. A process is an
// ordinary Go function executing on a runtime coroutine (iter.Pull), pooled
// per environment and reused once the process finishes. Exactly one
// process runs at a time: there is no scheduler goroutine, a parking
// process dispatches the next events itself, and when they wake another
// process it yields to the driver loop, which resumes that process — two
// coroutine switches, no goroutine scheduling. All wakeups run in one
// (time, sequence) order — through a single event queue, except a sleep
// whose wakeup is provably the queue's next event, which the sleeper takes
// in place — so runs are bit-reproducible for a given seed regardless of
// GOMAXPROCS or of where an event is popped. A panic in a process's code
// surfaces from the run that resumed it, naming the process.
//
// Processes block with the primitives in this package: Sleep, Event (one-shot
// broadcast, with an optional deadline), Queue (unbounded FIFO channel: only
// Get blocks), and Semaphore (counted resource). These are the building
// blocks for the hardware, transport, and guest-OS models in the rest of the
// repository. Every queued event is a process resume or a plain callback;
// nothing is cancelled, so a timed wait signalled in time leaves its
// deadline queued as a no-op until it passes.
//
// A callback chain is the second, stackless kind of process, for work that
// is a fixed sequence of run-to-completion steps, such as a coherence push
// or the chunked-fetch driver: each step waits with Semaphore.AcquireFunc,
// which queues it with process waiters in one FIFO, or Env.SleepFunc, which
// shares Sleep's in-place rule, and the wait's one event runs the next
// step. A chain's events fall exactly where a process's resumes would, so
// the choice of kind changes no output.
//
// Time is modeled as time.Duration elapsed since the start of the simulation.
//
// The kernel itself reproduces nothing from the paper — it is the substrate
// that makes the reproduction's claims checkable: the §2.3 measurement study
// and the §5 evaluation both replay on it bit for bit. DESIGN.md §5
// documents the scheduler internals (baton passing, event queue, pooled
// carriers).
//
// shard.go adds the windowed farm loop (DESIGN.md §12): a ShardGroup runs
// several Envs in turn on the calling goroutine, window by window, and runs
// barrier hooks between windows, where guests share host resources. The
// determinism contract carries over — each Env still executes its own
// (time, sequence) order, so multi-guest runs are byte-identical for equal
// seeds.
package sim
