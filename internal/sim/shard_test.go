package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// shardRig builds n environments, each running a deterministic workload of
// sleeping processes and rescheduling timers driven by the env's own rng,
// and returns the envs plus per-env execution logs (instants at which work
// ran). The logs are the byte-comparable fingerprint of a run.
func shardRig(n int) ([]*Env, []*[]string) {
	envs := make([]*Env, n)
	logs := make([]*[]string, n)
	for i := 0; i < n; i++ {
		idx := i
		e := NewEnv(int64(100 + i))
		log := &[]string{}
		envs[i], logs[i] = e, log
		for w := 0; w < 3; w++ {
			wi := w
			e.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
				for k := 0; k < 40; k++ {
					d := time.Duration(1+e.Rand().Intn(700)) * time.Microsecond
					p.Sleep(d)
					*log = append(*log, fmt.Sprintf("%d/%d@%v", idx, wi, p.Now()))
				}
			})
		}
		var tick func()
		tick = func() {
			*log = append(*log, fmt.Sprintf("%d/t@%v", idx, e.Now()))
			if e.Now() < 20*time.Millisecond {
				e.After(time.Duration(1+e.Rand().Intn(900))*time.Microsecond, tick)
			}
		}
		e.After(time.Millisecond, tick)
	}
	return envs, logs
}

func flattenLogs(logs []*[]string) string {
	var out string
	for _, l := range logs {
		for _, s := range *l {
			out += s + "\n"
		}
	}
	return out
}

// TestShardGroupMatchesSerialEnvs pins the core determinism contract: a
// shard group produces byte-identical execution to driving each environment
// alone with Env.RunUntil.
func TestShardGroupMatchesSerialEnvs(t *testing.T) {
	const horizon = 30 * time.Millisecond
	serialEnvs, serialLogs := shardRig(5)
	for _, e := range serialEnvs {
		e.RunUntil(horizon)
	}
	want := flattenLogs(serialLogs)
	var wantEvents uint64
	for _, e := range serialEnvs {
		wantEvents += e.ExecutedEvents()
		e.Close()
	}

	envs, logs := shardRig(5)
	defer closeAll(envs)
	g := NewShardGroup(500*time.Microsecond, 1, envs...)
	defer g.Close()
	g.RunUntil(horizon)
	if got := flattenLogs(logs); got != want {
		t.Fatalf("execution diverged from serial\n got: %.200s\nwant: %.200s", got, want)
	}
	if g.ExecutedEvents() != wantEvents {
		t.Fatalf("ExecutedEvents = %d, want %d", g.ExecutedEvents(), wantEvents)
	}
	for _, e := range envs {
		if e.Now() != horizon {
			t.Fatalf("env clock at %v, want %v", e.Now(), horizon)
		}
	}
}

// TestShardGroupStartsNoGoroutines: a group runs every environment on the
// calling goroutine, so building one starts none, whatever shard count it
// is given.
func TestShardGroupStartsNoGoroutines(t *testing.T) {
	envs, _ := shardRig(4)
	defer closeAll(envs)
	before := runtime.NumGoroutine()
	g := NewShardGroup(500*time.Microsecond, 4, envs...)
	defer g.Close()
	if started := runtime.NumGoroutine() - before; started > 0 {
		t.Fatalf("NewShardGroup started %d goroutines, want none", started)
	}
}

// TestShardGroupBarrierHooks checks the shared-resource synchronization
// point: hooks run at every window barrier with contiguous, monotone
// window bounds covering the whole run.
func TestShardGroupBarrierHooks(t *testing.T) {
	envs, _ := shardRig(4)
	defer closeAll(envs)
	g := NewShardGroup(time.Millisecond, 1, envs...)
	defer g.Close()
	windows := 0
	prevEnd := Time(0)
	g.AtBarrier(func(prev, now Time) {
		if prev != prevEnd {
			t.Errorf("window start %v, want previous end %v", prev, prevEnd)
		}
		if now <= prev {
			t.Errorf("non-advancing window [%v, %v]", prev, now)
		}
		prevEnd = now
		windows++
	})
	g.RunUntil(25 * time.Millisecond)
	if prevEnd != 25*time.Millisecond {
		t.Errorf("last window ended at %v, want the horizon", prevEnd)
	}
	if windows < 5 {
		t.Fatalf("only %d windows; the rig should produce many", windows)
	}
}

// TestShardGroupClampsAndDegenerates covers the boundary shapes: a shard
// count above the environment count is accepted, and a single environment
// still honors RunUntil semantics (events at the horizon execute).
func TestShardGroupClampsAndDegenerates(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	ranAtHorizon := false
	e.After(10*time.Millisecond, func() { ranAtHorizon = true })
	g := NewShardGroup(time.Millisecond, 8, e)
	defer g.Close()
	g.RunUntil(10 * time.Millisecond)
	if !ranAtHorizon {
		t.Fatal("event at the horizon did not execute (RunUntil bound must be inclusive)")
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want 10ms", e.Now())
	}
	// An idle stretch past the last event still advances every clock.
	g.RunUntil(50 * time.Millisecond)
	if e.Now() != 50*time.Millisecond {
		t.Fatalf("idle advance left clock at %v", e.Now())
	}
}

func closeAll(envs []*Env) {
	for _, e := range envs {
		e.Close()
	}
}
