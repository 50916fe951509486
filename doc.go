// Package repro is a from-scratch Go reproduction of "vSoC: Efficient
// Virtual System-on-Chip on Heterogeneous Hardware" (SOSP 2024).
//
// The root package only anchors the module and the benchmark harness in
// bench_test.go; the system lives under internal/:
//
//   - internal/sim        deterministic discrete-event simulation kernel
//   - internal/hostsim    host hardware: memory domains, links, devices, thermal
//   - internal/virtio     paravirtual transport (rings, kicks, IRQs, MMIO pages)
//   - internal/hypergraph the twin hypergraphs of the SVM Manager (§3.2)
//   - internal/prefetch   the prefetch engine: prediction + adaptive synchronism (§3.3)
//   - internal/svm        the SVM Manager, coherence protocols, and Fig. 3 HAL
//   - internal/fence      virtual command fences (§3.4)
//   - internal/flowcontrol MIMD flow control pacing guest dispatch
//   - internal/device     the paravirtual virtual-device framework
//   - internal/guest      guest OS mechanisms: VSync, BufferQueues
//   - internal/emulator   assembled emulators: vSoC, ablations, five baselines
//   - internal/workload   the Table 1 emerging apps and §5.5 popular apps
//   - internal/experiments every table and figure of §2.3 and §5
//
// See README.md for a tour and EXPERIMENTS.md for paper-vs-measured results.
package repro
