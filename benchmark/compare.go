package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles compares two sets of runs record by record: for each
// workload and metric it prints both sides' median and quartiles, the
// fraction of run pairs B wins, and a verdict against the metric's bound:
//
//   - improved: B's median is better by more than A's quartile spread and
//     B wins at least nine pairs in ten (or, when the spread is wider than
//     the bound, every B run beats every A run);
//   - worse: B's median is worse than A's by more than the bound;
//   - unresolved: a side's spread is wider than the bound, so neither holds;
//   - no worse: otherwise.
//
// Metrics without a bound (per-layer) get no verdict. It reports whether
// any verdict is "worse".
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, order, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, _, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	worse := false
	for _, wl := range order {
		ra, rb := a[wl], b[wl]
		if len(rb) == 0 {
			fmt.Fprintf(w, "%s: no runs in %s\n", wl, pathB)
			continue
		}
		fmt.Fprintf(w, "%s: %d vs %d runs, digests %s\n", wl, len(ra), len(rb), digestAgreement(ra, rb))
		fmt.Fprintf(w, "  %-44s %-30s %-30s %5s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "win", "verdict")
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			va, vb := values(ra, d.name), values(rb, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(d, va, vb)
			if v.text == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "  %-44s %-30s %-30s %5.2f  %s\n", d.name, summary(va), summary(vb), v.win, v.text)
		}
	}
	return worse, nil
}

type compared struct {
	win  float64 // share of (A[i], B[i]) pairs where B is better
	text string
}

func verdict(d metricDef, va, vb []float64) compared {
	better := func(x, y float64) bool { // x better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs := min(len(va), len(vb))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(vb[i], va[i]) {
			wins++
		}
	}
	c := compared{win: float64(wins) / float64(pairs)}
	if d.bound == 0 {
		c.text = "-"
		return c
	}
	ma, mb := median(va), median(vb)
	// drift is how much worse B's median is, as a share of A's.
	drift := ratio(mb-ma, math.Abs(ma))
	if d.better == "higher" {
		drift = -drift
	}
	spread := func(vs []float64) float64 {
		q := quartiles(vs)
		return ratio(q[2]-q[0], math.Abs(median(vs)))
	}
	allBetter := true
	for _, x := range vb {
		for _, y := range va {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case math.Max(spread(va), spread(vb)) > d.bound:
		c.text = "unresolved"
		if allBetter {
			c.text = "improved"
		}
	case drift > d.bound:
		c.text = "worse"
	case -drift > spread(va) && c.win >= 0.9:
		c.text = "improved"
	default:
		c.text = "no worse"
	}
	return c
}

func summary(vs []float64) string {
	q := quartiles(vs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(vs), q[0], q[2])
}

func values(rs []*record, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// digestAgreement says whether every run of both sides simulated the same
// thing (equal seeds and an unchanged model give one digest).
func digestAgreement(a, b []*record) string {
	bySeed := map[int64]string{}
	for _, r := range append(append([]*record(nil), a...), b...) {
		if d, ok := bySeed[r.Seed]; ok && d != r.Digest {
			return "DIFFER"
		}
		bySeed[r.Seed] = r.Digest
	}
	return "identical per seed"
}

// readRecords reads a JSON-lines record file, grouping runs by workload in
// first-seen order.
func readRecords(path string) (map[string][]*record, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byWL := map[string][]*record{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := new(record)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if _, ok := byWL[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWL[r.Workload] = append(byWL[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return byWL, order, nil
}
