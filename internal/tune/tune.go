// Package tune is the auto-tuner over the emulator's chunked demand-fetch
// configuration (DESIGN.md §14): the chunk size, DMA promotion threshold
// and pipeline depth of §11. A declared knob space (each knob registers its
// name, candidate levels, shipped default, and a setter into a
// hostsim.FetchConfig) is enumerated: every vector whose resolved fetch
// config no earlier vector has is measured, all of them in one evaluator
// batch, and scored on a configurable objective — minimize or maximize one
// evaluation metric subject to constraints expressed relative to the
// shipped default.
//
// Determinism contract: a search is a pure function of (space, evaluator).
// The evaluator is required to be deterministic — the experiments-backed
// one inherits that from the simulation kernel — and the candidate order,
// the dedup and every tie-break follow fixed slice order over evaluated
// metrics only, so equal inputs produce byte-identical traces, best
// vectors, and reports at every worker count. TestSearchDeterministic pins
// this.
package tune

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hostsim"
)

// Knob is one tunable dimension of the config space. Levels are the
// discrete candidate settings in ascending order, the order the search
// enumerates them in.
type Knob struct {
	// Name identifies the knob everywhere: trace lines, best-vector
	// tables, and DESIGN.md §14 (cmd/docscheck lints that every registered
	// name appears there).
	Name string
	// Levels are the candidate values. Their meaning is private to Set;
	// Format renders them for humans.
	Levels []float64
	// Default is the index into Levels encoding the shipped default.
	Default int
	// Set installs the level value into the candidate fetch config.
	Set func(*hostsim.FetchConfig, float64)
	// Format renders a level value (nil means %g).
	Format func(float64) string
}

// fmtLevel renders one of the knob's levels.
func (k Knob) fmtLevel(v float64) string {
	if k.Format != nil {
		return k.Format(v)
	}
	return fmt.Sprintf("%g", v)
}

// Space is an ordered knob set. Order matters: candidate enumeration and
// vector rendering follow it, so it is part of the determinism contract.
type Space struct {
	Knobs []Knob
}

// Vector is one candidate configuration: a level index per knob, aligned
// with Space.Knobs.
type Vector []int

// DefaultVector returns the vector encoding every knob's shipped default.
func (s Space) DefaultVector() Vector {
	v := make(Vector, len(s.Knobs))
	for i, k := range s.Knobs {
		v[i] = k.Default
	}
	return v
}

// Config decodes a vector: the zero fetch config with every knob's chosen
// level applied.
func (s Space) Config(v Vector) hostsim.FetchConfig {
	var c hostsim.FetchConfig
	for i, k := range s.Knobs {
		k.Set(&c, k.Levels[v[i]])
	}
	return c
}

// nonDefault counts the knobs v sets away from their defaults.
func (s Space) nonDefault(v Vector) int {
	n := 0
	for i, k := range s.Knobs {
		if v[i] != k.Default {
			n++
		}
	}
	return n
}

// Format renders a vector as {name=level ...} with only non-default knobs
// spelled out (and "defaults" when none differ), which keeps trace lines
// readable in wide spaces.
func (s Space) Format(v Vector) string {
	var parts []string
	for i, k := range s.Knobs {
		if v[i] != k.Default {
			parts = append(parts, k.Name+"="+k.fmtLevel(k.Levels[v[i]]))
		}
	}
	if len(parts) == 0 {
		return "{defaults}"
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Metrics is one evaluation's named measurements, sorted by name (the
// evaluator returns them normalized; the planted test evaluators must do
// the same).
type Metrics []experiments.BenchMetric

// Lookup returns the named metric's value and whether it exists.
func (m Metrics) Lookup(name string) (experiments.BenchMetric, bool) {
	i := sort.Search(len(m), func(i int) bool { return m[i].Name >= name })
	if i < len(m) && m[i].Name == name {
		return m[i], true
	}
	return experiments.BenchMetric{}, false
}

// Value returns the named metric's value (0 when absent).
func (m Metrics) Value(name string) float64 {
	bm, _ := m.Lookup(name)
	return bm.Value
}

// Evaluator measures candidate vectors, a search's candidates in one call.
// EvaluateBatch returns metrics index-aligned with vs and must be
// deterministic: equal vectors yield byte-identical metrics (after
// BenchMetric rounding), however they are batched.
type Evaluator interface {
	EvaluateBatch(vs []Vector) []Metrics
}
