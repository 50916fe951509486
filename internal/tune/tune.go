// Package tune is the auto-tuner over the emulator's chunked demand-fetch
// configuration (DESIGN.md §14): the chunk size, DMA promotion threshold
// and pipeline depth of §11. The search measures a fixed list of
// hostsim.FetchConfig candidates in one evaluator batch, the zero config
// (the shipped default, chunking off) first, each by the Fig. 16
// experiment's bench report. A candidate is feasible when its report passes
// the regression gate against the zero config's
// (experiments.Report.Regressed at experiments.DefaultThreshold, the rule
// cmd/vsocperf applies), and the best is the feasible candidate with the
// lowest demand-fetch mean.
//
// Determinism contract: a search is a pure function of (candidates,
// evaluator). The evaluator is required to be deterministic — the
// experiments-backed one inherits that from the simulation kernel — and
// the ranking and every tie-break follow the fixed candidate order over
// evaluated metrics only, so equal inputs produce byte-identical traces,
// picks, and reports at every worker count. TestSearchDeterministic pins
// this.
package tune

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/hostsim"
)

// objective is the one metric the search minimizes: the Fig. 16 probe's
// demand-fetch critical-path mean.
const objective = "fig16.demand_fetch_mean_ms"

// KnobNames returns the names of the three fetch knobs, in rendering
// order: hostsim.FetchConfig's ChunkBytes, DMAThreshold and MaxInflight.
// DESIGN.md §14's knob table lists exactly these (cmd/docscheck checks
// both ways).
func KnobNames() [3]string {
	return [3]string{"fetch.chunk_kib", "fetch.dma_threshold_kib", "fetch.max_inflight"}
}

// candidates returns the search list: the zero config, then every chunk
// size × DMA threshold × pipeline depth, the depth varying fastest. A
// disabled config reads neither other knob, so the zero config stands for
// every chunking-off setting and the list holds 1 + 4×3×4 = 49 distinct
// resolved configs.
func candidates() []hostsim.FetchConfig {
	cands := []hostsim.FetchConfig{{}}
	for _, chunk := range []hostsim.Bytes{64, 256, 1024, 4096} {
		for _, dma := range []hostsim.Bytes{16, 64, 256} {
			for _, depth := range []int{2, 4, 8, 16} {
				cands = append(cands, hostsim.FetchConfig{
					ChunkBytes: chunk * hostsim.KiB, DMAThreshold: dma * hostsim.KiB, MaxInflight: depth})
			}
		}
	}
	return cands
}

// levels renders c's knob levels in KnobNames order. A disabled config
// never reads its other two knobs, so they render at the levels an enabled
// config resolves them to: the shipped defaults.
func levels(c hostsim.FetchConfig) [3]string {
	if !c.Enabled() {
		c = hostsim.EnabledFetch()
		c.ChunkBytes = 0
	}
	kib := func(b hostsim.Bytes) string {
		if b == 0 {
			return "off"
		}
		return fmt.Sprintf("%dKiB", b/hostsim.KiB)
	}
	return [3]string{kib(c.ChunkBytes), kib(c.DMAThreshold), strconv.Itoa(c.MaxInflight)}
}

// changed renders c's non-default knobs as name=level, in KnobNames order.
func changed(c hostsim.FetchConfig) []string {
	var parts []string
	def, lv := levels(hostsim.FetchConfig{}), levels(c)
	for i, name := range KnobNames() {
		if lv[i] != def[i] {
			parts = append(parts, name+"="+lv[i])
		}
	}
	return parts
}

// format renders c as {name=level ...} with only its non-default knobs
// spelled out, and "{defaults}" when none differ.
func format(c hostsim.FetchConfig) string {
	if parts := changed(c); len(parts) > 0 {
		return "{" + strings.Join(parts, " ") + "}"
	}
	return "{defaults}"
}

// Step is one trace entry: a candidate, in list order, so the baseline is
// step 0. The rendered trace is part of the determinism surface: equal
// inputs produce byte-identical step sequences.
type Step struct {
	Config   hostsim.FetchConfig
	Value    float64 // the candidate's demand-fetch mean
	Violated string  // the first baseline metric it lacks or regresses; "" when feasible
	Best     bool    // the best candidate so far at this step
}

// Result is one completed search: the baseline's and the best candidate's
// bench reports, the before/after pair vsoctune -out writes.
type Result struct {
	Preset         string
	Baseline, Best *experiments.Report
	Trace          []Step
	best           int // Best's index in Trace
}

// Search measures cands in one evaluator batch, whose reports are
// index-aligned with cands, and returns the best feasible candidate.
// cands[0] is the baseline: a candidate is feasible when its report passes
// the regression gate against the baseline's, so the baseline always is.
// The best is the feasible candidate with the lowest demand-fetch mean; a
// tie goes to the candidate with fewer non-default knobs, then to the
// earlier one, so a knob that does not matter is reported at its default.
// Deterministic for equal (cands, eval); see the package doc.
func Search(preset string, cands []hostsim.FetchConfig, eval func([]hostsim.FetchConfig) []*experiments.Report) *Result {
	reps := eval(cands)
	res := &Result{Preset: preset, Baseline: reps[0]}
	best, bestValue, bestND := -1, 0.0, 0
	for i, c := range cands {
		m, _ := reps[i].Lookup(objective)
		st := Step{Config: c, Value: m.Value, Violated: reps[i].Regressed(res.Baseline, experiments.DefaultThreshold)}
		if nd := len(changed(c)); st.Violated == "" && (best < 0 || st.Value < bestValue || st.Value == bestValue && nd < bestND) {
			best, bestValue, bestND = i, st.Value, nd
			st.Best = true
		}
		res.Trace = append(res.Trace, st)
	}
	res.best, res.Best = best, reps[best]
	return res
}

// Run searches one preset end to end: every candidate runs the Fig. 16
// experiment (experiments.RunFig16) on the preset with its fetch config in
// place of the preset's, and is scored by that experiment's bench report,
// the one vsocbench -exp fig16 -json writes. The batch fans the candidates
// out over the experiments worker pool with each candidate's inner run
// forced serial: the pool overlaps whole candidates instead of sessions,
// and every measurement stays byte-identical to a lone run at any worker
// count.
func Run(cfg experiments.Config, p emulator.Preset) *Result {
	inner := cfg
	inner.Workers = 1
	return Search(p.Name, candidates(), func(cands []hostsim.FetchConfig) []*experiments.Report {
		return experiments.ParMap(cfg.EffectiveWorkers(), len(cands), func(i int) *experiments.Report {
			cand := p
			cand.Fetch = cands[i]
			ms := experiments.Fig16Metrics(experiments.RunFig16(inner, cand))
			return experiments.NewBenchReport(map[string][]experiments.BenchMetric{"fig16": ms})
		})
	})
}

// FormatTrace renders the measured candidates, one line per step. The
// rendering is byte-deterministic and is what the determinism test
// compares.
func (r *Result) FormatTrace() string {
	var b strings.Builder
	for i, st := range r.Trace {
		state := "feasible"
		if st.Violated != "" {
			state = "rejected(" + st.Violated + ")"
		}
		fmt.Fprintf(&b, "%3d %s %s=%.6g %s", i,
			format(st.Config), objective, st.Value, state)
		if st.Best {
			b.WriteString(" best")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatResult renders the search outcome: the candidate count, the best
// config knob by knob, and the baseline-vs-best metric table.
func (r *Result) FormatResult() string {
	var b strings.Builder
	rejected := 0
	for _, st := range r.Trace {
		if st.Violated != "" {
			rejected++
		}
	}
	fmt.Fprintf(&b, "Auto-tune %s: objective %s, %d candidates (%d rejected)\n",
		r.Preset, objective, len(r.Trace), rejected)
	if r.best == 0 {
		b.WriteString("  best = shipped defaults (no feasible improvement found)\n")
	}
	b.WriteString("  knob                        default    best\n")
	def, best := levels(hostsim.FetchConfig{}), levels(r.Trace[r.best].Config)
	for i, name := range KnobNames() {
		mark := ""
		if best[i] != def[i] {
			mark = "  <-"
		}
		row := fmt.Sprintf("  %-27s %-10s %-7s%s", name, def[i], best[i], mark)
		b.WriteString(strings.TrimRight(row, " ") + "\n")
	}
	b.WriteString("  metric                               baseline        best     change\n")
	for _, m := range r.Best.Metrics {
		base, _ := r.Baseline.Lookup(m.Name)
		delta := "-"
		if base.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (m.Value-base.Value)/math.Abs(base.Value)*100)
		}
		fmt.Fprintf(&b, "  %-35s %10.6g  %10.6g   %8s\n", m.Name, base.Value, m.Value, delta)
	}
	fmt.Fprintf(&b, "  best vector: %s\n", format(r.Trace[r.best].Config))
	return b.String()
}
