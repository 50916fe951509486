package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// testScale shrinks every workload's simulated durations so the whole
// suite stays within a few seconds.
const testScale = 0.02

func testPass(t *testing.T, w workloadDef, cfg runConfig) *pass {
	t.Helper()
	p, err := runPass(w, cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return p
}

// Simulated-time results are a function of the seed alone: the worker and
// shard counts, and attaching profilers, change only host time.
func TestSimulatedResultsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := runConfig{seed: 1, scale: testScale, workers: 2, shards: 2}
			ref := testPass(t, w, base)
			want := simMetrics([]*pass{ref})

			serial := base
			serial.workers, serial.shards = 1, 1
			traced := base
			traced.traced = true
			for name, cfg := range map[string]runConfig{
				"equal seed": base, "1 worker and 1 shard": serial, "traced": traced,
			} {
				p := testPass(t, w, cfg)
				if p.digest != ref.digest {
					t.Errorf("%s: digest %s, want %s", name, p.digest, ref.digest)
				}
				got := simMetrics([]*pass{p})
				for k, v := range want {
					if got[k] != v {
						t.Errorf("%s: %s = %v, want %v", name, k, got[k], v)
					}
				}
			}

			other := base
			other.seed = 2
			if p := testPass(t, w, other); p.digest == ref.digest {
				t.Errorf("seeds 1 and 2 gave the same digest %s", p.digest)
			}
		})
	}
}

func TestCheckRunFlagsBadOutputs(t *testing.T) {
	ok := &workload.Result{Frames: 600}
	for i := 0; i < 10; i++ {
		ok.Latency.Add(50)
	}
	cases := []struct {
		name   string
		res    *workload.Result
		minM2P int
		errs   int
	}{
		{"good", ok, 10, 0},
		{"no frames", &workload.Result{}, 0, 1},
		{"faster than content", &workload.Result{Frames: 601}, 0, 1},
		{"thin tail", ok, 11, 1},
	}
	for _, c := range cases {
		p := &pass{sessions: []sessionStats{{job: c.name, dur: 10 * time.Second, res: c.res}}}
		if errs := checkRun([]*pass{p}, c.minM2P); len(errs) != c.errs {
			t.Errorf("%s: %d errors %v, want %d", c.name, len(errs), errs, c.errs)
		}
	}
}

// protobuf encodes the few wire types a pprof profile uses.
type protobuf struct{ b []byte }

func (e *protobuf) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *protobuf) uint(field int, v uint64) {
	e.varint(uint64(field) << 3)
	e.varint(v)
}

func (e *protobuf) msg(field int, b []byte) {
	e.varint(uint64(field)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *protobuf) packed(field int, vs ...uint64) {
	var in protobuf
	for _, v := range vs {
		in.varint(v)
	}
	e.msg(field, in.b)
}

func TestFoldCPUProfile(t *testing.T) {
	funcs := []string{
		"runtime.chanrecv",                            // 1
		"repro/internal/sim.(*Proc).park",             // 2
		"repro/internal/hostsim.(*Link).transfer",     // 3
		"repro/internal/metrics.(*Distribution).Add",  // 4
		"repro/internal/svm.(*Manager).BeginAccess",   // 5
		"runtime.gcBgMarkWorker",                      // 6
		"runtime.scanobject",                          // 7
		"repro/benchmark.main",                        // 8
		"runtime.mcall",                               // 9
		"runtime.schedule",                            // 10
		"runtime.futex",                               // 11
		"repro/internal/guest.(*BufferQueue).Acquire", // 12
		"repro/internal/sim/bench.loop",               // 13
	}
	var p protobuf
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m protobuf
		m.uint(1, vt[0])
		m.uint(2, vt[1])
		p.msg(1, m.b)
	}
	for i := range funcs {
		var m protobuf
		m.uint(1, uint64(i+1))
		m.uint(2, uint64(i+5))
		p.msg(5, m.b)
	}
	// Location 2 is park inlined into transfer: innermost line first.
	locs := [][]uint64{{1}, {2, 3}, {4}, {5}, {7}, {6}, {11}, {10}, {9}, {12}, {8}, {13}}
	for i, fns := range locs {
		var m protobuf
		m.uint(1, uint64(i+1))
		for _, fn := range fns {
			var line protobuf
			line.uint(1, fn)
			m.msg(4, line.b)
		}
		p.msg(4, m.b)
	}
	sample := func(ns uint64, packed bool, locs ...uint64) {
		var m protobuf
		if packed {
			m.packed(1, locs...)
		} else {
			for _, l := range locs {
				m.uint(1, l)
			}
		}
		m.packed(2, 1, ns)
		p.msg(2, m.b)
	}
	sample(30, true, 1, 2)   // chanrecv <- park <- transfer: sim, scheduler
	sample(20, false, 3, 4)  // metrics <- svm: svm
	sample(10, true, 5, 6)   // scanobject <- gcBgMarkWorker: runtime, GC
	sample(5, true, 7, 8, 9) // futex <- schedule <- mcall: runtime, scheduler
	sample(7, false, 10, 11) // guest <- benchmark: other
	sample(3, true, 12)      // sim/bench: sim
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := newCPUFold()
	f.add(samples)
	if f.total != 75 {
		t.Errorf("total %d, want 75", f.total)
	}
	wantLayers := map[string]int64{"sim": 33, "svm": 20, "runtime": 15, "other": 7}
	if !reflect.DeepEqual(f.layers, wantLayers) {
		t.Errorf("layers %v, want %v", f.layers, wantLayers)
	}
	if f.leafSched != 35 || f.leafGC != 10 {
		t.Errorf("leaf sched %d gc %d, want 35 and 10", f.leafSched, f.leafGC)
	}
	var folded strings.Builder
	if err := f.writeFolded(&folded); err != nil {
		t.Fatal(err)
	}
	wantFolded := `repro/benchmark.main;repro/internal/guest.(*BufferQueue).Acquire 7
repro/internal/hostsim.(*Link).transfer;repro/internal/sim.(*Proc).park;runtime.chanrecv 30
repro/internal/sim/bench.loop 3
repro/internal/svm.(*Manager).BeginAccess;repro/internal/metrics.(*Distribution).Add 20
runtime.gcBgMarkWorker;runtime.scanobject 10
runtime.mcall;runtime.schedule;runtime.futex 5
`
	if folded.String() != wantFolded {
		t.Errorf("folded stacks:\n%s\nwant:\n%s", folded.String(), wantFolded)
	}
	m := f.metrics()
	if got := m["host.sim.frac"]; got != 33.0/75 {
		t.Errorf("host.sim.frac %v, want %v", got, 33.0/75)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(vs, n=4) in Python 3.
	cases := []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.vs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{name: "x", better: "lower", bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", base, []float64{101, 100, 100, 99, 101}, "no worse"},
		{"slower", base, []float64{120, 121, 119, 122, 120}, "worse"},
		{"faster", base, []float64{80, 81, 79, 80, 82}, "improved"},
		{"noisy", []float64{60, 140, 100, 80, 120}, []float64{100, 90, 110, 95, 105}, "unresolved"},
		{"noisy but all faster", []float64{60, 140, 100, 80, 120}, []float64{50, 55, 52, 51, 53}, "improved"},
	}
	for _, c := range cases {
		if got := verdict(d, c.a, c.b).text; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json declares the same workloads and metrics the program runs
// and reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	check := func(kind string, got []metric, defs []metricDef) {
		var want []metric
		for _, d := range defs {
			want = append(want, metric{d.name, d.unit, d.better, d.bound})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", kind, got, want)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "vsoc-emerging", "--trace", "2"},
		{"--workload", "vsoc-emerging", "--seconds", "0"},
		{"--compare", "only-one.jsonl"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no output", args, code, out.String())
		}
	}
}
