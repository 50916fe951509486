// Command tracecheck validates Chrome/Perfetto trace-event JSON files
// produced by the observability layer (vsocbench -trace). For each file it
// checks that the bytes are valid JSON, that the document carries a
// non-empty traceEvents array, that every event has the keys the Perfetto
// UI requires (name, ph, pid, tid; ts for non-metadata events), and that
// every named track belongs to a known family — including the fleet
// telemetry tracks (fleet:sched, fleet:host, tenant:<name>) emitted by the
// DESIGN.md §13 observability layer.
//
// Usage:
//
//	tracecheck file.json [file2.json ...]
//
// An unknown track name is a warning, not a failure: the exporter may grow
// new families between releases, and a stale checker must not gate the
// trace-smoke make target on them. Structural problems (bad JSON, missing
// keys, unknown phase letters) still exit non-zero.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// knownTrackPrefixes enumerates the track families the observability layer
// emits; a track is recognized when any of these prefixes matches. Exact
// names ("faults") are prefixes of themselves.
var knownTrackPrefixes = []string{
	"dev:",   // per-device HAL spans
	"faults", // injected-fault windows
	"fences", // fence table activity
	"fleet:", // fleet scheduler/host counter tracks (§13)
	"link:",  // interconnect transfers
	"prefetch",
	"svm:",    // shared-virtual-memory protocol spans
	"tenant:", // per-tenant QoS violation spans (§13)
	"thermal",
	"vq:", // virtqueue activity
}

func knownTrack(name string) bool {
	for _, p := range knownTrackPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// summary is one file's validation result.
type summary struct {
	spans, instants, counters, asyncs, meta int
	tracks                                  []string
	unknown                                 []string
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck file.json [file2.json ...]")
		os.Exit(2)
	}
	failed := false
	for _, path := range os.Args[1:] {
		s, err := checkFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			failed = true
			continue
		}
		for _, name := range s.unknown {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: warning: unknown track %q (known families: %s)\n",
				path, name, strings.Join(knownTrackPrefixes, ", "))
		}
		fmt.Printf("%s: ok — %d tracks, %d spans, %d instants, %d counters, %d async edges, %d metadata\n",
			path, len(s.tracks), s.spans, s.instants, s.counters, s.asyncs, s.meta)
	}
	if failed {
		os.Exit(1)
	}
}

func checkFile(path string) (*summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !json.Valid(raw) {
		return nil, fmt.Errorf("not valid JSON")
	}
	var doc struct {
		DisplayTimeUnit string                       `json:"displayTimeUnit"`
		TraceEvents     []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("empty traceEvents array")
	}
	s := &summary{}
	tracks := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				return nil, fmt.Errorf("event %d missing %q", i, key)
			}
		}
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			return nil, fmt.Errorf("event %d: bad ph: %v", i, err)
		}
		if ph != "M" {
			if _, ok := ev["ts"]; !ok {
				return nil, fmt.Errorf("event %d (ph=%s) missing ts", i, ph)
			}
		}
		switch ph {
		case "X":
			s.spans++
			if _, ok := ev["dur"]; !ok {
				return nil, fmt.Errorf("event %d: complete span missing dur", i)
			}
		case "i":
			s.instants++
		case "C":
			s.counters++
		case "b", "e":
			s.asyncs++
			if _, ok := ev["id"]; !ok {
				return nil, fmt.Errorf("event %d: async edge missing id", i)
			}
		case "M":
			s.meta++
			var name string
			json.Unmarshal(ev["name"], &name)
			if name == "thread_name" {
				var args struct {
					Name string `json:"name"`
				}
				json.Unmarshal(ev["args"], &args)
				tracks[args.Name] = true
			}
		default:
			return nil, fmt.Errorf("event %d: unknown phase %q", i, ph)
		}
	}
	for name := range tracks {
		s.tracks = append(s.tracks, name)
		if !knownTrack(name) {
			s.unknown = append(s.unknown, name)
		}
	}
	sort.Strings(s.tracks)
	sort.Strings(s.unknown)
	return s, nil
}
