// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock and a set of processes. A process is an
// ordinary Go function executing on a runtime coroutine (iter.Pull), pooled
// per environment and reused once the process finishes. Exactly one
// process runs at a time: there is no scheduler goroutine, a parking
// process dispatches the next events itself, and when they wake another
// process it yields to the driver loop, which resumes that process — two
// coroutine switches, no goroutine scheduling. All wakeups flow through a
// single event queue ordered by (time, sequence), so runs are
// bit-reproducible for a given seed regardless of GOMAXPROCS or of where an
// event is popped. A panic in a process's code surfaces from the run that
// resumed it, naming the process.
//
// Processes block with the primitives in this package: Sleep, Event (one-shot
// broadcast), Queue (FIFO channel), and Semaphore (counted resource). These
// are the building blocks for the hardware, transport, and guest-OS models in
// the rest of the repository.
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
