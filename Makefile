# Tier-1 gate is `make check`: everything CI (and the roadmap) requires to
# pass before a change lands. `make verify` adds the race detector over the
# concurrency-bearing packages, a short fuzz of the sim kernel and a
# benchmark smoke run of the sim core and the SVM access path.

GO ?= go

.PHONY: check build vet test docs-check bench-module race fuzz-smoke bench-smoke examples-smoke sim-smoke chaos-smoke trace-smoke tune-smoke mon-smoke bench perf-smoke perf-gate verify

check: vet build test docs-check bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Documentation gate: every internal package doc must name its paper section
# and determinism contract, README/DESIGN/EXPERIMENTS must not reference
# paths that left the tree, DESIGN.md §14 must name every knob
# internal/tune names (tune.KnobNames) and list no other, EXPERIMENTS.md must
# document every experiment the internal/experiments registry declares and
# no doc may invoke an unregistered one (-exp), every exported
# declaration under internal/ must have a non-test reference, and every
# struct field under internal/ must have a non-test reader.
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

# Generative kernel check: FuzzBatonRunMatchesStepRun drives seeded
# scenarios (sleeps that tie other events, a queue, a mutex, an event,
# callbacks, child processes) with RunUntil and with a Step loop, and the
# two must execute the same events in the same order. `go test` replays the
# committed corpus (internal/sim/testdata/fuzz); this explores new seeds for
# 10 s, and writes any failing input there.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzBatonRunMatchesStepRun -fuzztime=10s ./internal/sim

# One short iteration of the scheduler microbenchmarks, of the SVM access
# path's (write->read cycles per protocol, plus a write-invalidate cycle
# whose read is a chunked demand fetch, the guest driver's prediction
# query, a hypergraph edge hit), of the chunked demand-fetch path (one
# 10 MiB transfer with a whole-range reader) and of the device op path (a
# Submit -> execute -> retire cycle per ordering mode): catches gross
# regressions, and shows any return of per-event, per-access, per-fetch,
# per-chunk or per-op allocation in the allocs/op column, without the noise
# sensitivity of a full benchmark run.
bench-smoke:
	$(GO) test -run=NONE -bench='SteadyState|ZeroDelay|RunUntil|SpawnChurn' -benchtime=10000x -benchmem ./internal/sim/bench
	$(GO) test -run=NONE -bench='PipelineCycle|PredictCompensation|EdgeHit|ChunkedTransfer|Submit' -benchtime=10000x -benchmem ./internal/svm ./internal/hypergraph ./internal/hostsim ./internal/device

# Examples gate: `go build ./...` compiles examples/, but only running them
# exercises the public API they are the sole non-test callers of (e.g.
# svm.Module.Free). Each must exit 0.
examples-smoke:
	@for e in examples/*/; do \
		$(GO) run ./$$e > /dev/null || { echo "examples-smoke: $$e failed" >&2; exit 1; }; \
	done

# vsocsim gate: every app of its -app table, the five Table 1 categories and
# the three popular-app kinds, runs two ways: a single run with -v (result,
# SVM internals, monitor report) and a two-guest farm (-guests 2: results,
# fleet report, monitor report). Each must exit 0; an unknown app must be a
# usage error (exit 2).
sim-smoke:
	$(GO) build -o /tmp/vsoc-sim ./cmd/vsocsim
	@for a in uhd 360 camera ar livestream heavy3d ui social; do \
		for f in -v "-guests 2"; do \
			/tmp/vsoc-sim -app $$a -duration 2s $$f > /dev/null || { echo "sim-smoke: -app $$a $$f failed" >&2; exit 1; }; \
		done; \
	done
	@/tmp/vsoc-sim -app nosuch > /dev/null 2>&1; \
	if [ $$? -ne 2 ]; then echo "sim-smoke: -app nosuch did not exit 2" >&2; exit 1; fi

# Fault-injection gate: the faults package under the race detector, plus one
# short seeded robustness sweep so the degradation/recovery story stays
# visible end to end.
chaos-smoke:
	$(GO) test -race ./internal/faults/... ./internal/fence/...
	$(GO) run ./cmd/vsocbench -exp robustness -duration 12s

# Observability gate: a traced robustness run must emit per-cell Perfetto
# JSON that tracecheck accepts (valid JSON, required trace-event keys), and
# a traced shardscale run must emit a fleet counter trace whose track names
# tracecheck recognizes (§13).
trace-smoke:
	$(GO) run ./cmd/vsocbench -exp robustness -duration 12s -trace /tmp/vsoc-trace.json -metrics > /dev/null
	$(GO) run ./cmd/vsocbench -exp shardscale -duration 4s -trace /tmp/vsoc-shardscale.json > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/vsoc-trace-*.json /tmp/vsoc-shardscale-fleet.json

# Config-search gate (DESIGN.md §14): the search measures every distinct
# fetch config on both presets (write-invalidate and prefetch), and its -v
# output, wall-time lines masked, must be byte-identical at -workers 1 and
# -workers 2. The tuner scores a candidate by the fig16 experiment's bench
# report, so its write-invalidate baseline file must equal `vsocbench -exp
# fig16 -json` at the same flags byte for byte: one Fig. 16 probe. Per
# preset, the best config must pass vsocperf both ways: default -> best
# exits 0 (no metric regresses past the threshold) and best -> default
# exits 1 (the objective, the demand-fetch mean, improved). The first holds
# by construction, since the search's feasibility test is vsocperf's own
# rule (experiments.Judge); running the binary cross-checks the tuner
# against the gate.
tune-smoke:
	$(GO) build -o /tmp/vsoc-perf ./cmd/vsocperf
	$(GO) build -o /tmp/vsoc-tuner ./cmd/vsoctune
	@for w in 1 2; do \
		/tmp/vsoc-tuner -preset both -duration 2s -apps 1 -seed 1 -v -workers $$w -out /tmp/vsoc-tune > /tmp/vsoc-tune-w$$w.out || exit 1; \
		sed -e '/ tuned in /d' -e '/^\[total /d' /tmp/vsoc-tune-w$$w.out > /tmp/vsoc-tune-w$$w.txt; \
	done
	@cmp /tmp/vsoc-tune-w1.txt /tmp/vsoc-tune-w2.txt || { echo "tune-smoke: output differs between -workers 1 and -workers 2" >&2; exit 1; }
	$(GO) run ./cmd/vsocbench -exp fig16 -duration 2s -apps 1 -seed 1 -json /tmp/vsoc-tune-fig16.json > /dev/null
	@cmp /tmp/vsoc-tune-fig16.json /tmp/vsoc-tune-vsoc-noprefetch-default.json || { echo "tune-smoke: the tuner's baseline report differs from vsocbench -exp fig16 -json" >&2; exit 1; }
	@for p in vsoc-noprefetch vsoc; do \
		/tmp/vsoc-perf /tmp/vsoc-tune-$$p-default.json /tmp/vsoc-tune-$$p-best.json > /tmp/vsoc-tune-$$p.diff; \
		if [ $$? -ne 0 ]; then cat /tmp/vsoc-tune-$$p.diff; echo "tune-smoke: $$p best vector regresses a gated metric" >&2; exit 1; fi; \
		echo "$$p:"; tail -n 2 /tmp/vsoc-tune-$$p.diff; \
		/tmp/vsoc-perf /tmp/vsoc-tune-$$p-best.json /tmp/vsoc-tune-$$p-default.json > /dev/null 2>&1; \
		if [ $$? -ne 1 ]; then echo "tune-smoke: $$p best vector shows no improvement over defaults" >&2; exit 1; fi; \
	done

# Telemetry gate (DESIGN.md §15): the monitored phased-load scenario must
# raise at least one incident, and two equal-seed runs must produce
# byte-identical monitor reports (vsocmon -digest compares the report
# fingerprints; cmp the whole files).
mon-smoke:
	$(GO) run ./cmd/vsocbench -exp phasedload -duration 16s -seed 1 -monout /tmp/vsoc-mon-a.json > /dev/null
	$(GO) run ./cmd/vsocbench -exp phasedload -duration 16s -seed 1 -monout /tmp/vsoc-mon-b.json > /dev/null
	$(GO) run ./cmd/vsocmon -min-incidents 1 -digest /tmp/vsoc-mon-a.json /tmp/vsoc-mon-b.json
	cmp /tmp/vsoc-mon-a.json /tmp/vsoc-mon-b.json

# Benchmark trajectory: the four-guest farm (§12) with its fleet telemetry
# (§13), plus the monitored phased-load scenario (§15) — incident counts
# and the first-trigger window join the trajectory — plus the §2.3 study
# behind Figs. 4-6, plus every paper table and figure (`all`: Table 2,
# Figs. 10-16, the §5.2/§5.5 reports), with chunked demand fetches on
# (§11), written as one machine-readable bench report plus the profiled
# Fig. 16 run's folded-stack flamegraph (critical-path attribution,
# DESIGN.md §10), under /tmp like the other smoke outputs. CI uploads both
# as artifacts.
bench:
	$(GO) run ./cmd/vsocbench -exp shardscale,phasedload,study,all -duration 8s -apps 2 -fetch -json /tmp/vsoc-bench.json -profile /tmp/vsoc-bench.folded > /dev/null

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
# BENCH.json baseline, and must still report every metric the baseline
# holds (vsocperf exits 1 on a regression or a dropped metric; new metrics
# pass). A change that moves the baseline regenerates BENCH.json; history
# lives in git.
perf-gate: bench
	$(GO) run ./cmd/vsocperf $(PERF_NOISY) BENCH.json /tmp/vsoc-bench.json

verify: check race fuzz-smoke bench-smoke examples-smoke sim-smoke chaos-smoke trace-smoke tune-smoke mon-smoke perf-smoke perf-gate
