// Command benchmark is the repository's end-to-end benchmark. It drives the
// simulator's public packages on four workloads and reports the paper's
// frame QoS in simulated time (FPS, drops, motion-to-photon) and the
// simulator's own speed in host time (simulated seconds per host second,
// ns and allocations per event, peak memory, set-up time).
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	                      [--tracedir DIR] [--out FILE.jsonl]
//	bash benchmark/run.sh --compare A.jsonl B.jsonl
//
// A run sets up and runs its workload in passes for about --seconds, prints
// a table, then one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set: simulated
// time pooled over four passes under distinct sub-seeds, host time as
// medians over every pass. With --trace 1 they are the per-layer set from a
// traced pass, layer micro-drivers and a CPU profile. --out appends a fuller
// record (digest, frame counts) that --compare reads. Any failed check exits
// non-zero. See README.md for the workloads and the metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Concurrency of every run: the benchmark's reference host has two CPUs.
const (
	benchWorkers = 2
	benchShards  = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	traceDir := fs.String("tracedir", "", "traced runs: directory to write the CPU profile and folded stacks to")
	out := fs.String("out", "", "append the run's JSON record to this file")
	cmp := fs.Bool("compare", false, "compare two record files: --compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare takes two record files")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload one of %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, scale: 1, workers: benchWorkers, shards: benchShards}
	budget := time.Duration(*seconds * float64(time.Second))

	var rec *record
	var err error
	if *trace == 1 {
		rec, err = tracedRun(w, cfg, budget, *traceDir)
	} else {
		rec, err = endToEndRun(w, cfg, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printTable(stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(stderr, "benchmark: check failed:", e)
	}
	line, err := json.Marshal(result{
		Correct:   len(rec.Errors) == 0,
		Attempted: rec.Sessions,
		Failed:    int64(len(rec.Errors)),
		Metrics:   rec.Metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(rec.Errors) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. Attempted counts the simulated
// sessions (guests, on the farm) over all passes; Failed counts failed
// checks, each of which also makes the run exit non-zero. Dropped frames
// are the simulated system's QoS, reported as drop_frac, not failures.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the fuller per-run record --out appends and --compare reads.
// Ops/OpsFailed are the frames the apps attempted and dropped.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Passes    int                    `json:"passes"`
	Sessions  int64                  `json:"sessions"`
	Ops       int64                  `json:"ops"`
	OpsFailed int64                  `json:"ops_failed"`
	Digest    string                 `json:"digest"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds values reported beside the catalogue (e.g. the FPS error
	// against the paper), never gated.
	Info   map[string]float64 `json:"info,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// newRecord fills the simulated-time part of a record from the first nsim
// passes of a run, checks their outputs, and checks that every later pass
// (a repeat of pass i%nsim) simulated exactly the same thing.
func newRecord(w workloadDef, seed int64, trace bool, passes []*pass, nsim int) *record {
	sims := passes[:nsim]
	rec := &record{
		Workload: w.name, Seed: seed, Trace: trace, Passes: len(passes),
		Digest:  runDigest(sims),
		Metrics: map[string]metricValue{},
		Info:    map[string]float64{},
	}
	for _, p := range passes {
		rec.Sessions += int64(len(p.sessions))
	}
	for _, p := range sims {
		for i := range p.sessions {
			r := p.sessions[i].res
			rec.Ops += int64(r.Frames + r.Drops)
			rec.OpsFailed += int64(r.Drops)
		}
	}
	for _, e := range checkRun(sims, minM2PSamples) {
		rec.Errors = append(rec.Errors, e.Error())
	}
	for i := nsim; i < len(passes); i++ {
		if got, want := passes[i].digest, passes[i%nsim].digest; got != want {
			rec.Errors = append(rec.Errors, fmt.Sprintf("pass %d digest %s differs from pass %d digest %s", i, got, i%nsim, want))
		}
	}
	return rec
}

// endToEndRun runs simPasses sub-seeded passes, plus repeats of them while
// the budget lasts, and reports the end-to-end metrics: simulated-time
// values pooled over the simPasses passes, host-time values as medians over
// all passes.
func endToEndRun(w workloadDef, cfg runConfig, budget time.Duration) (*record, error) {
	passes, err := repeatPasses(w, cfg, budget, simPasses, simPasses)
	if err != nil {
		return nil, err
	}
	rec := newRecord(w, cfg.seed, false, passes, simPasses)
	host, err := hostMetrics(passes)
	if err != nil {
		return nil, err
	}
	sm := simMetrics(passes[:simPasses])
	for _, d := range endToEnd {
		v, ok := host[d.name]
		if d.sim {
			v, ok = sm[d.name]
		}
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		rec.Metrics[d.name] = metricValue{v, d.unit}
	}
	rec.Info["workload.m2p_samples"] = sm["workload.m2p_samples"]
	if w.paperFPS > 0 {
		rec.Info["workload.fps_err_vs_paper"] = (sm["fps_mean"] - w.paperFPS) / w.paperFPS
	}
	return rec, nil
}

// repeatPasses runs passes of w, pass k under subSeed(cfg.seed, k%seeds),
// each just after a calibration, at least min of them and more while the
// next one is expected to end within budget.
func repeatPasses(w workloadDef, cfg runConfig, budget time.Duration, min, seeds int) ([]*pass, error) {
	var passes []*pass
	start := time.Now()
	for k := 0; ; k++ {
		t := time.Now()
		pc := cfg
		pc.seed = subSeed(cfg.seed, k%seeds)
		calib := calibrate()
		p, err := runPass(w, pc)
		if err != nil {
			return nil, err
		}
		p.calib = calib
		passes = append(passes, p)
		if len(passes) >= min && time.Since(start)+time.Since(t) > budget {
			return passes, nil
		}
	}
}

// tracedRun is the per-layer run: one untraced pass (the digest reference
// and host-time layer values), traced passes of the same sub-seed for the
// rest of the budget (per-session critical-path profilers, a CPU profile,
// and the simulated-time layer values), then the layer micro-drivers. The
// traced passes must reproduce the untraced digest.
func tracedRun(w workloadDef, cfg runConfig, budget time.Duration, dir string) (*record, error) {
	start := time.Now()
	calib := calibrate()
	plain, err := runPass(w, cfg)
	if err != nil {
		return nil, err
	}
	plain.calib = calib
	tcfg := cfg
	tcfg.traced = true
	traced, err := repeatPasses(w, tcfg, budget-time.Since(start), 1, 1)
	if err != nil {
		return nil, err
	}
	rec := newRecord(w, cfg.seed, true, append([]*pass{plain}, traced...), 1)
	micro, err := runMicro()
	if err != nil {
		return nil, err
	}
	fold := newCPUFold()
	var walls []float64
	for _, p := range traced {
		samples, err := parseCPUProfile(p.cpu)
		if err != nil {
			return nil, err
		}
		fold.add(samples)
		walls = append(walls, p.wall.Seconds())
	}
	if fold.total == 0 {
		rec.Errors = append(rec.Errors, "traced passes recorded no CPU samples")
	}
	values := simMetrics(traced[:1])
	for _, m := range []map[string]float64{
		passHostMetrics(plain), profMetrics(traced[0].prof), fold.metrics(), micro,
	} {
		for k, v := range m {
			values[k] = v
		}
	}
	values["trace_overhead_frac"] = median(walls)/plain.wall.Seconds() - 1
	for _, d := range perLayer {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		rec.Metrics[d.name] = metricValue{v, d.unit}
	}
	if dir != "" {
		if err := writeTraceFiles(dir, w.name, traced, fold); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// writeTraceFiles writes a traced run's raw CPU profile (first traced pass),
// its layer-folded stacks, and the critical-path profiler's folded stacks.
func writeTraceFiles(dir, name string, traced []*pass, fold *cpuFold) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, name)
	if err := os.WriteFile(base+".cpu.pprof", traced[0].cpu, 0o644); err != nil {
		return err
	}
	for suffix, write := range map[string]func(io.Writer) error{
		".cpu.folded":  fold.writeFolded,
		".prof.folded": traced[0].prof.WriteFolded,
	} {
		f, err := os.Create(base + suffix)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// checkRun verifies the outputs of a run's passes: every session presented
// frames, none more than its content rate over the whole run
// (workload.Result.FPS counts from the first presented frame, so it may read
// a hair above the rate when a pipeline catches up after start-up), and the
// pooled motion-to-photon tail rests on at least minM2P samples.
func checkRun(passes []*pass, minM2P int) []error {
	var errs []error
	sessions, m2p := 0, 0
	for _, p := range passes {
		for i := range p.sessions {
			s := &p.sessions[i]
			sessions++
			m2p += s.res.Latency.Count()
			if s.res.Frames == 0 {
				errs = append(errs, fmt.Errorf("%s presented no frames", s.job))
			}
			if rate := float64(s.res.Frames) / s.dur.Seconds(); rate > contentFPS {
				errs = append(errs, fmt.Errorf("%s presented %.3f frames/s, above the %d FPS content rate", s.job, rate, contentFPS))
			}
		}
	}
	if sessions == 0 {
		return append(errs, errors.New("no sessions ran"))
	}
	if m2p < minM2P {
		errs = append(errs, fmt.Errorf("m2p_p99_ms rests on %d samples, fewer than %d", m2p, minM2P))
	}
	return errs
}

// printTable writes the human-readable report.
func printTable(w io.Writer, rec *record) {
	kind := "end-to-end"
	defs := endToEnd
	if rec.Trace {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  passes %d  sessions %d  frames %d (dropped %d)  digest %s\n",
		rec.Workload, rec.Seed, kind, rec.Passes, rec.Sessions, rec.Ops, rec.OpsFailed, rec.Digest)
	fmt.Fprintf(w, "  %-44s %16s  %-7s %-5s %s\n", "metric", "value", "unit", "time", "bound")
	for _, d := range defs {
		t := "host"
		if d.sim {
			t = "sim"
		}
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%g", d.bound)
		}
		fmt.Fprintf(w, "  %-44s %16.6g  %-7s %-5s %s\n", d.name, rec.Metrics[d.name].Value, d.unit, t, bound)
	}
	keys := make([]string, 0, len(rec.Info))
	for k := range rec.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-44s %16.6g  (info)\n", k, rec.Info[k])
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
