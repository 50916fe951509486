package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// cellObs builds the observability layer for one robustness cell: a tracer
// windowed to the fault interval ±1 s when cfg.TracePath is set, and a
// metrics registry when cfg.Metrics is set. Either may come back nil.
func cellObs(cfg Config, faultAt, faultFor time.Duration) (*obs.Tracer, *obs.Registry) {
	var tr *obs.Tracer
	if cfg.TracePath != "" {
		tr = obs.NewTracer()
		from := faultAt - time.Second
		if from < 0 {
			from = 0
		}
		tr.SetWindow(from, faultAt+faultFor+time.Second)
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
	}
	return tr, reg
}

// cellTracePath derives the per-cell trace file name from the configured
// base path: base minus a trailing ".json", then "-<emulator>-<fault>.json"
// with the emulator name sanitized to [a-z0-9-].
func cellTracePath(base, emu string, class faults.Class) string {
	stem := strings.TrimSuffix(base, ".json")
	return fmt.Sprintf("%s-%s-%s.json", stem, sanitizeName(emu), sanitizeName(string(class)))
}

func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// writeFile creates path and fills it with write: how every experiment
// writes its side files (traces, folded profiles, incident snapshots).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile exports t as Chrome/Perfetto trace-event JSON at path.
func writeTraceFile(path string, t *obs.Tracer) error {
	return writeFile(path, func(w io.Writer) error { return obs.WritePerfetto(w, t) })
}

// written is how a report names a side file: its path, or the error that
// kept it from being written.
func written(path string, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return path
}
