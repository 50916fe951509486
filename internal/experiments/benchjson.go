package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// BenchMetric is one scalar measurement in the benchmark trajectory.
// Better declares the regression direction for Judge: "lower"
// means smaller values are improvements (latency), "higher" the
// opposite (FPS, coverage).
type BenchMetric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

// Report is the machine-readable summary of a bench run: a flat, sorted
// list of named metrics. Its JSON encoding is stable — metrics sorted by
// name, values rounded to six decimals, no map iteration anywhere — so
// equal runs produce byte-identical files and cmd/vsocperf can diff two
// trajectories without parsing ambiguity.
type Report struct {
	// Schema versions the encoding so future readers can detect old files.
	Schema int `json:"schema"`
	// Experiments lists which experiment runners contributed, sorted.
	Experiments []string      `json:"experiments"`
	Metrics     []BenchMetric `json:"metrics"`
}

// NewBenchReport assembles a Report from per-experiment metric slices.
func NewBenchReport(byExp map[string][]BenchMetric) *Report {
	r := &Report{Schema: 1}
	for name, ms := range byExp {
		r.Experiments = append(r.Experiments, name)
		r.Metrics = append(r.Metrics, ms...)
	}
	sort.Strings(r.Experiments)
	r.normalize()
	return r
}

// normalize sorts metrics by name and rounds values so encoding is stable.
func (r *Report) normalize() {
	for i := range r.Metrics {
		r.Metrics[i].Value = roundMetric(r.Metrics[i].Value)
	}
	sort.Slice(r.Metrics, func(i, j int) bool { return r.Metrics[i].Name < r.Metrics[j].Name })
}

// roundMetric rounds to six decimals and squashes non-finite values (which
// encoding/json rejects) to zero.
func roundMetric(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

// DefaultThreshold is the relative change in a metric's bad direction past
// which Judge calls it a regression: cmd/vsocperf's default gate and the
// tuner's feasibility bound (DESIGN.md §14).
const DefaultThreshold = 0.05

// Judge classifies the change of one metric from its baseline om to nm. rel
// is the signed relative change (new-old)/|old|; the verdict reads the
// change in nm's better direction: "REGRESSION" past threshold the bad way,
// "improvement" past it the good way, "ok" within it, and "ok (zero
// baseline)" for any change from zero, which has no magnitude to scale by.
func Judge(om, nm BenchMetric, threshold float64) (rel float64, verdict string) {
	if om.Value == nm.Value {
		return 0, "ok"
	}
	if om.Value == 0 {
		return 0, "ok (zero baseline)"
	}
	rel = (nm.Value - om.Value) / math.Abs(om.Value)
	worse := rel
	if nm.Better == "higher" {
		worse = -rel
	}
	switch {
	case worse > threshold:
		return rel, "REGRESSION"
	case worse < -threshold:
		return rel, "improvement"
	default:
		return rel, "ok"
	}
}

// Regressed names the first metric of base, in name order, that r lacks or
// that Judge calls a regression at threshold, and returns "" when there is
// none: the gate cmd/vsocperf applies to a before/after pair.
func (r *Report) Regressed(base *Report, threshold float64) string {
	for _, bm := range base.Metrics {
		m, ok := r.Lookup(bm.Name)
		if !ok {
			return bm.Name
		}
		if _, verdict := Judge(bm, m, threshold); verdict == "REGRESSION" {
			return bm.Name
		}
	}
	return ""
}

// Lookup returns the named metric and whether it exists.
func (r *Report) Lookup(name string) (BenchMetric, bool) {
	i := sort.Search(len(r.Metrics), func(i int) bool { return r.Metrics[i].Name >= name })
	if i < len(r.Metrics) && r.Metrics[i].Name == name {
		return r.Metrics[i], true
	}
	return BenchMetric{}, false
}

// WriteJSON emits the stable encoding: indented, key order fixed by the
// struct field order, trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	r.normalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path.
func (r *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBenchReport parses a report written by WriteJSON.
func ReadBenchReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != 1 {
		return nil, fmt.Errorf("bench report: unsupported schema %d", r.Schema)
	}
	r.normalize()
	return &r, nil
}

// ReadBenchReportFile parses the report at path.
func ReadBenchReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBenchReport(f)
}
