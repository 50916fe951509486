# Tier-1 gate is `make check`: everything CI (and the roadmap) requires to
# pass before a change lands. `make verify` adds the race detector over the
# concurrency-bearing packages and a benchmark smoke run of the sim core and
# the SVM access path.

GO ?= go

.PHONY: check build vet test docs-check bench-module race bench-smoke chaos-smoke trace-smoke tune-smoke mon-smoke bench perf-smoke perf-gate verify

check: vet build test docs-check bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Documentation gate: every internal package doc must name its paper section
# and determinism contract, README/DESIGN/EXPERIMENTS must not reference
# paths that left the tree, DESIGN.md §14 must name every knob the
# internal/tune registry declares, EXPERIMENTS.md must document every
# experiment the internal/experiments registry declares, and every exported
# declaration under internal/ must have a non-test reference.
docs-check:
	$(GO) run ./cmd/docscheck .

# The benchmark is a module of its own (benchmark/go.mod), so the root
# ./... patterns skip it; it is the one consumer of internal/ that does not
# change with it, so vet and test it here.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The experiment fan-out runs independent sessions on a worker pool — the
# concurrent code — over the sim kernel, so both run under the race
# detector; everything else, the §12 farm loop included, runs on one
# goroutine.
race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/...

# One short iteration of the scheduler microbenchmarks and of the SVM
# access path's (write->read cycles per protocol, the guest driver's
# prediction query, a hypergraph edge hit): catches gross regressions, and
# shows any return of per-event or per-access allocation in the allocs/op
# column, without the noise sensitivity of a full benchmark run.
bench-smoke:
	$(GO) test -run=NONE -bench='SteadyState|ZeroDelay|RunUntil|SpawnChurn' -benchtime=10000x -benchmem ./internal/sim/bench
	$(GO) test -run=NONE -bench='PipelineCycle|PredictCompensation|EdgeHit' -benchtime=10000x -benchmem ./internal/svm ./internal/hypergraph

# Fault-injection gate: the faults package under the race detector, plus one
# short seeded robustness sweep so the degradation/recovery story stays
# visible end to end.
chaos-smoke:
	$(GO) test -race ./internal/faults/... ./internal/fence/...
	$(GO) run ./cmd/vsocbench -exp robustness -duration 12s

# Observability gate: a traced robustness run must emit per-cell Perfetto
# JSON that tracecheck accepts (valid JSON, required trace-event keys), and
# a fleet-instrumented shardscale run must emit a fleet counter trace whose
# track names tracecheck recognizes (§13).
trace-smoke:
	$(GO) run ./cmd/vsocbench -exp robustness -duration 12s -trace /tmp/vsoc-trace.json -metrics > /dev/null
	$(GO) run ./cmd/vsocbench -exp shardscale -duration 4s -fleet -trace /tmp/vsoc-shardscale.json > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/vsoc-trace-*.json /tmp/vsoc-shardscale-fleet.json

# Config-search gate (DESIGN.md §14): a tiny-budget deterministic search on
# the write-invalidate preset must find a vector that vsocperf confirms —
# the objective (demand-fetch mean) improves and no gated metric regresses
# past 5%. The search is seeded, so the found vector and the diff are
# byte-stable across runs and machines.
tune-smoke:
	$(GO) run ./cmd/vsoctune -preset vsoc-noprefetch -duration 2s -apps 1 -budget 6 -seed 1 -out /tmp/vsoc-tune > /dev/null
	$(GO) run ./cmd/vsocperf /tmp/vsoc-tune-vsoc-noprefetch-default.json /tmp/vsoc-tune-vsoc-noprefetch-best.json | tail -n 2
	@$(GO) run ./cmd/vsocperf /tmp/vsoc-tune-vsoc-noprefetch-best.json /tmp/vsoc-tune-vsoc-noprefetch-default.json > /dev/null 2>&1; \
	if [ $$? -eq 0 ]; then echo "tune-smoke: best vector shows no improvement over defaults" >&2; exit 1; fi

# Telemetry gate (DESIGN.md §15): the monitored phased-load scenario must
# raise at least one incident, and two equal-seed runs must produce
# byte-identical monitor reports (vsocmon -digest compares the report
# fingerprints; cmp the whole files).
mon-smoke:
	$(GO) run ./cmd/vsocbench -exp phasedload -duration 16s -seed 1 -monout /tmp/vsoc-mon-a.json > /dev/null
	$(GO) run ./cmd/vsocbench -exp phasedload -duration 16s -seed 1 -monout /tmp/vsoc-mon-b.json > /dev/null
	$(GO) run ./cmd/vsocmon -min-incidents 1 -digest /tmp/vsoc-mon-a.json /tmp/vsoc-mon-b.json
	cmp /tmp/vsoc-mon-a.json /tmp/vsoc-mon-b.json

# Benchmark trajectory: the profiled micro run (Fig. 16 + critical-path
# attribution, DESIGN.md §10) with chunked demand fetches on (§11), plus the
# four-guest farm (§12) with fleet telemetry attached (§13), plus the
# monitored phased-load scenario (§15) — incident counts and the
# first-trigger window join the trajectory — written as one
# machine-readable bench report plus the micro run's folded-stack
# flamegraph, under /tmp like the other smoke outputs. CI uploads both as
# artifacts.
bench:
	$(GO) run ./cmd/vsocbench -exp micro,shardscale,phasedload -duration 8s -apps 2 -fetch -fleet -json /tmp/vsoc-bench.json -profile /tmp/vsoc-bench.folded > /dev/null

# The shardscale events/s metric measures the build host's wall clock, not
# the simulation; gate it at a wide 90% threshold so machine noise never
# fails a perf gate while order-of-magnitude collapses still do. Everything
# else in the trajectory is deterministic.
PERF_NOISY = -metric shardscale.events_per_sec_serial=0.9

# Perf gate: vsocperf must parse the fresh bench report and find zero
# regressions diffing it against itself (exit 1 on any).
perf-smoke: bench
	$(GO) run ./cmd/vsocperf /tmp/vsoc-bench.json /tmp/vsoc-bench.json

# Cross-PR perf gate: the fresh run must not regress against the committed
# BENCH_PR10.json baseline (vsocperf exits 1 on any regression). Metrics
# the baseline has and the run no longer reports diff as "dropped metric",
# never as regressions.
perf-gate: bench
	$(GO) run ./cmd/vsocperf $(PERF_NOISY) BENCH_PR10.json /tmp/vsoc-bench.json

verify: check race bench-smoke chaos-smoke trace-smoke tune-smoke mon-smoke perf-smoke perf-gate
