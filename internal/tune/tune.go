// Package tune is the auto-tuner over the emulator's policy configuration
// space (DESIGN.md §14): the notification-batching windows of §9, the
// chunked demand-fetch knobs of §11, and the prefetch engine's suspension
// heuristics of §3.3. A declared knob space (each knob registers its name,
// candidate levels, shipped default, and a setter into
// experiments.Tunable) is searched with deterministic grid/random seeding
// followed by hill-climb with patience, scoring candidates on a
// configurable objective — minimize or maximize one evaluation metric
// subject to constraints expressed relative to the shipped default — and
// caching every evaluation by vector key so revisited cells replay their
// scores without re-running. Each search phase hands its candidates to the
// evaluator as one batch.
//
// Determinism contract: a search is a pure function of (space, evaluator,
// options). The evaluator is required to be deterministic — the
// experiments-backed one inherits that from the simulation kernel — and
// every search decision (seeding order, neighbor order, tie-breaks, rng
// consumption) is made in fixed slice order from evaluated metrics only,
// so equal seeds produce byte-identical search traces, best vectors, and
// reports at every worker count. TestSearchDeterministic pins this.
package tune

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// Knob is one tunable dimension of the config space. Levels are the
// discrete candidate settings in ascending order; the hill-climb moves
// along them one step at a time.
type Knob struct {
	// Name identifies the knob everywhere: trace lines, best-vector
	// tables, DESIGN.md §14 (cmd/docscheck lints that every registered
	// name appears there), and cache keys.
	Name string
	// Levels are the candidate values. Their meaning is private to Set;
	// Format renders them for humans.
	Levels []float64
	// Default is the index into Levels encoding the shipped default.
	Default int
	// Set installs the level value into the candidate tunable.
	Set func(*experiments.Tunable, float64)
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

// Space is an ordered knob set. Order matters: seeding, neighbor
// enumeration, and vector rendering all follow it, so it is part of the
// determinism contract.
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

// Tunable decodes a vector: the base tunable (the preset's shipped config)
// with every knob's chosen level applied.
func (s Space) Tunable(base experiments.Tunable, v Vector) experiments.Tunable {
	for i, k := range s.Knobs {
		k.Set(&base, k.Levels[v[i]])
	}
	return base
}

// Key is the vector's canonical cache key: knob names and chosen values in
// space order. Two vectors share a key iff they decode to the same tunable
// under the same space.
func (s Space) Key(v Vector) string {
	var b strings.Builder
	for i, k := range s.Knobs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", k.Name, k.Levels[v[i]])
	}
	return b.String()
}

// Hash is the 64-bit FNV-1a digest of Key, the compact form trace lines
// and cache diagnostics print.
func (s Space) Hash(v Vector) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Key(v)))
	return h.Sum64()
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

// clone copies a vector (search bookkeeping mutates copies, never shared
// slices).
func (v Vector) clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
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

// Evaluator measures candidate vectors, every search phase's candidates in
// one call. EvaluateBatch returns metrics index-aligned with vs and must be
// deterministic: equal vectors yield byte-identical metrics (after
// BenchMetric rounding), however they are batched.
type Evaluator interface {
	EvaluateBatch(vs []Vector) []Metrics
}
