package sim

import (
	"testing"
	"time"
)

// windowRecorder counts observed windows and their events, and checks that
// every non-final window advanced.
type windowRecorder struct {
	t       *testing.T
	windows int
	events  uint64
}

func (r *windowRecorder) ShardWindow(w *ShardWindowStats) {
	if w.Limit <= w.Base && !w.Final {
		r.t.Errorf("non-final window did not advance: [%v, %v]", w.Base, w.Limit)
	}
	r.windows++
	r.events += w.Events
}

// TestShardObserverDeterministicAcrossCounts pins the instrumentation's
// own contract: the per-window event counts sum to ExecutedEvents, and
// attaching an observer does not perturb execution.
func TestShardObserverDeterministicAcrossCounts(t *testing.T) {
	const horizon = 30 * time.Millisecond
	run := func(rec *windowRecorder) (string, uint64) {
		envs, logs := shardRig(5)
		defer closeAll(envs)
		g := NewShardGroup(500*time.Microsecond, 1, envs...)
		defer g.Close()
		if rec != nil {
			g.SetObserver(rec)
		}
		g.RunUntil(horizon)
		return flattenLogs(logs), g.ExecutedEvents()
	}

	wantLog, wantEvents := run(nil)
	rec := &windowRecorder{t: t}
	log, events := run(rec)
	if log != wantLog {
		t.Fatal("observer perturbed execution")
	}
	if events != wantEvents {
		t.Fatalf("ExecutedEvents = %d, want %d", events, wantEvents)
	}
	if rec.windows == 0 {
		t.Fatal("no windows observed")
	}
	if rec.events != wantEvents {
		t.Fatalf("observed window events sum %d, want %d", rec.events, wantEvents)
	}
}
