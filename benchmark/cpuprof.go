package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, so the benchmark needs no
// module outside the standard library, and folds their samples by layer.

// cpuSample is one profile sample: its stack as function names, innermost
// (leaf) first, inlined callees before their callers, and its CPU time.
type cpuSample struct {
	stack []string
	ns    int64
}

// parseCPUProfile decodes a (possibly gzipped) pprof CPU profile.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		strs      []string
		types     []uint64 // sample_type[i].type, a string index
		samples   []rawSample
		funcNames = map[uint64]uint64{}   // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
	)
	err := eachField(data, func(f field) error {
		switch f.num {
		case 1: // sample_type
			return eachField(f.data, func(g field) error {
				if g.num == 1 {
					types = append(types, g.val)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					return g.uints(&s.locs)
				case 2:
					return g.uints(&s.values)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line
					return eachField(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		cs := cpuSample{ns: int64(s.values[valueIdx])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// field is one decoded protobuf field. val holds varint and fixed-width
// values; data holds length-delimited payloads.
type field struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// uints appends a repeated integer field, packed or not.
func (f field) uints(dst *[]uint64) error {
	if f.wire == 0 {
		*dst = append(*dst, f.val)
		return nil
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, v)
		b = b[n:]
	}
	return nil
}

// eachField calls fn on every field of a protobuf message.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, n = uvarint(b); n == 0 {
				return errors.New("bad varint")
			}
		case 1, 5:
			n = 8
			if f.wire == 5 {
				n = 4
			}
			if len(b) < n {
				return errors.New("truncated fixed-width field")
			}
			for i := n - 1; i >= 0; i-- {
				f.val = f.val<<8 | uint64(b[i])
			}
		case 2:
			l, m := uvarint(b)
			if m == 0 || uint64(len(b)-m) < l {
				return errors.New("bad length-delimited field")
			}
			f.data = b[m : m+int(l)]
			n = m + int(l)
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		b = b[n:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a base-128 varint, returning 0 bytes read on error.
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// cpuFold accumulates CPU time by layer over one or more profiles.
type cpuFold struct {
	total     int64
	layers    map[string]int64 // hostLayers entries, "other" and "runtime"
	leafSched int64
	leafGC    int64
	stacks    map[string]int64 // folded "root;...;leaf" stacks
}

func newCPUFold() *cpuFold {
	return &cpuFold{layers: map[string]int64{}, stacks: map[string]int64{}}
}

// Frames that mark a runtime sample as scheduler or garbage-collector work.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.sweepone", "runtime.deductSweepCredit",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.mcall", "runtime.goexit0", "runtime.newproc",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.gosched",
		"runtime.execute", "runtime.notesleep", "runtime.notewakeup",
	}
)

// add folds samples in. A sample belongs to the innermost frame of one of
// hostLayers; failing that to "other" when any frame is this repository's,
// and to "runtime" when none is. Samples whose leaf is in the Go runtime
// are runtime self time, split into scheduler and GC work by their stack.
func (f *cpuFold) add(samples []cpuSample) {
	for _, s := range samples {
		f.total += s.ns
		f.layers[layerOf(s.stack)] += s.ns
		if len(s.stack) > 0 && isRuntime(s.stack[0]) {
			switch {
			case anyPrefix(s.stack, gcFrames):
				f.leafGC += s.ns
			case anyPrefix(s.stack, schedFrames):
				f.leafSched += s.ns
			}
		}
		rev := slices.Clone(s.stack)
		slices.Reverse(rev)
		f.stacks[strings.Join(rev, ";")] += s.ns
	}
}

func layerOf(stack []string) string {
	repo := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if slices.Contains(hostLayers, pkg) {
				return pkg
			}
		}
		repo = repo || strings.HasPrefix(fn, "repro/")
	}
	if repo {
		return "other"
	}
	return "runtime"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

func anyPrefix(stack, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// metrics returns the host.* shares of CPU time.
func (f *cpuFold) metrics() map[string]float64 {
	t := float64(f.total)
	m := map[string]float64{
		"host.other.frac":      ratio(float64(f.layers["other"]), t),
		"host.runtime.frac":    ratio(float64(f.layers["runtime"]), t),
		"host.leaf_sched.frac": ratio(float64(f.leafSched), t),
		"host.leaf_gc.frac":    ratio(float64(f.leafGC), t),
	}
	for _, l := range hostLayers {
		m["host."+l+".frac"] = ratio(float64(f.layers[l]), t)
	}
	return m
}

// writeFolded writes the folded stacks, one "stack ns" line each, sorted.
func (f *cpuFold) writeFolded(w io.Writer) error {
	keys := make([]string, 0, len(f.stacks))
	for k := range f.stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, f.stacks[k]); err != nil {
			return err
		}
	}
	return nil
}
