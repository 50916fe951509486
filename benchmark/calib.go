package main

import "time"

// Host-time normalization. On a shared virtual machine the simulator's
// speed drifts by 20% and more over minutes as other tenants load the host;
// the drift is in goroutine hand-offs and cache behaviour, not in clock
// speed (a pure arithmetic loop stays within 3%). calibrate times a fixed
// kernel with the same shape as the simulator's hot path just before each
// pass, and the end-to-end host times are scaled by calibRef/kernel time.
// On the reference host the medians of two sets of ten runs then agree
// within 6%, where raw times moved by up to 30% (README.md). The kernel
// uses only the standard library and lives in the benchmark, so no change
// to the simulator can speed it up or slow it down: simulator speed-ups
// show in full.

// calibRef is calibrate's time on a quiet reference host (2-CPU x86-64
// Firecracker VM, Go 1.24; 150 to 330 ms depending on load). Normalized
// host times are in units of that host's seconds.
const calibRef = 200 * time.Millisecond

// calibrate runs two pairs of goroutines, one pair per worker, that hand a
// token back and forth over unbuffered channels 200,000 times (the sim.Proc
// resume/park handoff), each hop writing a small map entry and allocating.
func calibrate() time.Duration {
	start := time.Now()
	pool(benchWorkers, benchWorkers, func(int) {
		ping, pong := make(chan int), make(chan int)
		go func() {
			for v := range ping {
				pong <- v + 1
			}
			close(pong)
		}()
		m := make(map[int]*[4]int)
		for i := 0; i < 200_000; i++ {
			ping <- i
			v := <-pong
			m[v&4095] = &[4]int{v}
		}
		close(ping)
		<-pong
	})
	return time.Since(start)
}

// normalized scales a host duration measured next to a calibration time k
// to reference-host time.
func normalized(d, k time.Duration) float64 {
	return d.Seconds() * calibRef.Seconds() / k.Seconds()
}
