// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock and a set of processes. A process is an
// ordinary Go function executing on its own goroutine, but the kernel
// guarantees that exactly one goroutine runs at a time: there is no
// scheduler goroutine, and control passes directly between processes — a
// parking process dispatches the next events itself, resuming the next
// process (or itself) and returning control to the driver only at the run
// bound. All wakeups flow through a single event queue ordered by (time,
// sequence), so runs are bit-reproducible for a given seed regardless of
// GOMAXPROCS or of which goroutine pops an event.
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
// documents the scheduler internals (baton passing, event queue, process
// lifecycle).
//
// shard.go adds the conservative parallel shard runtime (DESIGN.md §12): a
// ShardGroup runs several Envs on worker goroutines in lockstep lookahead
// windows bounded by each shard's earliest possible cross-shard effect,
// with mailboxes delivered at barriers. The determinism contract carries
// over — every shard observes the same (time, sequence) order at every
// shard count, so multi-guest runs are byte-identical to their serial
// interleaving.
package sim
