package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/prof"
)

// metricDef is one catalogue entry. BENCHMARK.json declares the same names,
// units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed relative worsening
	sim    bool    // simulated-time (deterministic per seed) vs host time
}

// endToEnd are the metrics every untraced run reports on every workload.
// Bounds sit at about three times the widest spread measured over ten
// seeds on any workload; on a fixed seed the simulated-time metrics repeat
// bit for bit (see README.md for the measurements).
var endToEnd = []metricDef{
	{"fps_mean", "fps", "higher", 0.02, true},
	{"drop_frac", "frac", "lower", 0.20, true},
	{"m2p_p50_ms", "ms", "lower", 0.05, true},
	{"m2p_p99_ms", "ms", "lower", 0.10, true},
	{"sim_speed_x", "x", "higher", 0.20, false},
	{"wall_ns_per_event", "ns", "lower", 0.20, false},
	{"allocs_per_event", "allocs", "lower", 0.05, false},
	{"peak_rss_mb", "MB", "lower", 0.20, false},
	{"setup_s", "s", "lower", 0.25, false},
}

// hostLayers are the packages a traced run's CPU samples are folded into.
var hostLayers = []string{
	"sim", "svm", "hypergraph", "hostsim", "fence", "device", "virtio",
	"prefetch", "workload", "fleetobs", "tsmon", "prof",
}

// cpGroups folds the critical-path profiler's components into the layers
// they belong to, by component-name prefix.
var cpGroups = []struct{ name, prefix string }{
	{"pacing", "pacing"},
	{"dev", "dev:"},
	{"ring", "ring:"},
	{"link", "link:"},
	{"svm", "svm:"},
}

// perLayer are the metrics a traced run reports on every workload. Farm-only
// quantities read 0 (shared_scale_mean 1) on the other workloads.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"sim.events", "count", "lower", 0, true},
		{"sim.events_per_sim_s", "1/s", "lower", 0, true},
		{"sim.run_wall_s", "s", "lower", 0, false},
		{"sim.barrier_windows", "count", "lower", 0, true},
		{"sim.barrier_stall_frac", "frac", "lower", 0, false},
		{"svm.access_p50_ms", "ms", "lower", 0, true},
		{"svm.access_p99_ms", "ms", "lower", 0, true},
		{"svm.demand_fetch_frac", "frac", "lower", 0, true},
		{"svm.fetch_joins", "count", "higher", 0, true},
		{"svm.coherence_cost_mean_ms", "ms", "lower", 0, true},
		{"svm.prefetch_hit_frac", "frac", "higher", 0, true},
		{"svm.waste_frac", "frac", "lower", 0, true},
		{"prefetch.pred_accuracy", "frac", "higher", 0, true},
		{"prefetch.suspensions", "count", "lower", 0, true},
		{"virtio.commands", "count", "lower", 0, true},
		{"virtio.notif_per_op", "1/op", "lower", 0, true},
		{"virtio.elided_kicks", "count", "higher", 0, true},
		{"device.fence_waits", "count", "lower", 0, true},
		{"device.fence_timeouts", "count", "lower", 0, true},
		{"device.dropped_ops", "count", "lower", 0, true},
		{"fence.allocs", "count", "lower", 0, true},
		{"fence.peak", "count", "lower", 0, true},
		{"hostsim.link_gb", "GB", "lower", 0, true},
		{"hostsim.link_busy_frac_max", "frac", "lower", 0, true},
		{"hostsim.dma_retries", "count", "lower", 0, true},
		{"hostsim.dma_giveups", "count", "lower", 0, true},
		{"hostsim.shared_scale_mean", "frac", "higher", 0, true},
		{"workload.frames", "count", "higher", 0, true},
		{"workload.stale_drops", "count", "lower", 0, true},
		{"workload.deadline_drops", "count", "lower", 0, true},
		{"workload.m2p_samples", "count", "higher", 0, true},
		{"emulator.setup_us_per_session", "us", "lower", 0, false},
		{"fleetobs.slo_attainment", "frac", "higher", 0, true},
		{"tsmon.windows", "count", "higher", 0, true},
		{"tsmon.incidents", "count", "lower", 0, true},
		{"obs.report_wall_ms", "ms", "lower", 0, false},
		{"cp.frame_mean_ms", "ms", "lower", 0, true},
	}
	for _, g := range cpGroups {
		ms = append(ms, metricDef{"cp." + g.name + ".frac", "frac", "lower", 0, true})
	}
	ms = append(ms, metricDef{"cp.demand_fetch_coverage", "frac", "higher", 0, true})
	for _, l := range hostLayers {
		ms = append(ms, metricDef{"host." + l + ".frac", "frac", "lower", 0, false})
	}
	ms = append(ms,
		metricDef{"host.other.frac", "frac", "lower", 0, false},
		metricDef{"host.runtime.frac", "frac", "lower", 0, false},
		metricDef{"host.leaf_sched.frac", "frac", "lower", 0, false},
		metricDef{"host.leaf_gc.frac", "frac", "lower", 0, false},
		metricDef{"host.calib_ms", "ms", "lower", 0, false},
		metricDef{"trace_overhead_frac", "frac", "lower", 0, false},
	)
	for _, d := range microDrivers {
		ns, allocs := d.metrics()
		ms = append(ms,
			metricDef{ns, "ns", "lower", 0, false},
			metricDef{allocs, "allocs", "lower", 0, false})
	}
	return ms
}()

// minM2PSamples is the fewest motion-to-photon samples a p99 is reported on.
const minM2PSamples = 1000

// simMetrics computes every simulated-time metric over the sessions of the
// given passes, pooled in order: the deterministic end-to-end QoS numbers
// and the per-layer counters. The svm access percentiles need the samples
// only traced passes keep, and are left out without them.
func simMetrics(passes []*pass) map[string]float64 {
	m := make(map[string]float64)
	var m2p, access metrics.Distribution
	keptAccess := false
	var (
		simS, fps, cohSum, busyMax                   float64
		events                                       uint64
		frames, drops, stale, deadline, cohN         int
		accesses, demand, joins, hits, waits         int
		predTotal, predCorrect, susp, cmds, kicks    int
		elided, irqs, fenceWaits, timeouts, dropped  int
		fenceAllocs, fencePeak, retries, giveups, ex int
		bytesCoh, bytesWaste, linkBytes, batches     int64
	)
	var sessions []*sessionStats
	for _, p := range passes {
		for i := range p.sessions {
			sessions = append(sessions, &p.sessions[i])
		}
	}
	for _, s := range sessions {
		simS += s.dur.Seconds()
		events += s.events
		fps += s.res.FPS
		frames += s.res.Frames
		drops += s.res.Drops
		stale += s.res.StaleDrops
		deadline += s.res.DeadlineDrops
		m2p.Merge(&s.res.Latency)
		if s.access != nil {
			keptAccess = true
			access.Merge(s.access)
		}
		cohSum += s.cohSum
		cohN += s.cohCount
		accesses += s.accesses
		demand += s.demand
		joins += s.joins
		hits += s.hits
		waits += s.waits
		bytesCoh += int64(s.bytesCoh)
		bytesWaste += int64(s.bytesWaste)
		predTotal += s.predTotal
		predCorrect += s.predCorrect
		susp += s.suspensions
		ex += s.dev.Executed
		fenceWaits += s.dev.FenceWaits
		timeouts += s.dev.FenceTimeouts
		dropped += s.dev.DroppedOps
		cmds += s.commands
		kicks += s.kicks
		elided += s.elided
		irqs += s.irqs
		fenceAllocs += s.fenceAllocs
		fencePeak = max(fencePeak, s.fencePeak)
		linkBytes += int64(s.linkBytes)
		busyMax = math.Max(busyMax, s.linkBusyMax)
		retries += s.retries
		giveups += s.giveups
		batches += int64(s.batches)
	}
	m["fps_mean"] = ratio(fps, float64(len(sessions)))
	m["drop_frac"] = ratio(float64(drops), float64(frames+drops))
	m["m2p_p50_ms"] = m2p.Percentile(50)
	m["m2p_p99_ms"] = m2p.Percentile(99)

	m["sim.events"] = float64(events)
	m["sim.events_per_sim_s"] = ratio(float64(events), simS)
	if keptAccess {
		m["svm.access_p50_ms"] = access.Percentile(50)
		m["svm.access_p99_ms"] = access.Percentile(99)
	}
	m["svm.demand_fetch_frac"] = ratio(float64(demand), float64(accesses))
	m["svm.fetch_joins"] = float64(joins)
	m["svm.coherence_cost_mean_ms"] = ratio(cohSum, float64(cohN))
	m["svm.prefetch_hit_frac"] = ratio(float64(hits), float64(hits+waits+demand))
	m["svm.waste_frac"] = ratio(float64(bytesWaste), float64(bytesCoh))
	m["prefetch.pred_accuracy"] = ratio(float64(predCorrect), float64(predTotal))
	m["prefetch.suspensions"] = float64(susp)
	m["virtio.commands"] = float64(cmds)
	// Every guest<->host transition: kicks, delivered IRQs, and a doorbell
	// plus a completion per coherence transaction and per demand fetch (the
	// accounting of the batching experiment).
	m["virtio.notif_per_op"] = ratio(float64(kicks+irqs)+2*float64(batches)+2*float64(demand), float64(ex))
	m["virtio.elided_kicks"] = float64(elided)
	m["device.fence_waits"] = float64(fenceWaits)
	m["device.fence_timeouts"] = float64(timeouts)
	m["device.dropped_ops"] = float64(dropped)
	m["fence.allocs"] = float64(fenceAllocs)
	m["fence.peak"] = float64(fencePeak)
	m["hostsim.link_gb"] = float64(linkBytes) / 1e9
	m["hostsim.link_busy_frac_max"] = busyMax
	m["hostsim.dma_retries"] = float64(retries)
	m["hostsim.dma_giveups"] = float64(giveups)
	m["workload.frames"] = float64(frames)
	m["workload.stale_drops"] = float64(stale)
	m["workload.deadline_drops"] = float64(deadline)
	m["workload.m2p_samples"] = float64(m2p.Count())

	// Farm-level results: counts summed, shares averaged over the farms.
	var windows, sealed, incidents, farms int
	var scale, slo float64
	for _, p := range passes {
		if f := p.farm; f != nil {
			farms++
			windows += f.windows
			sealed += f.mon.Sealed
			incidents += len(f.mon.Incidents)
			scale += f.fleet.Host.MeanScale
			slo += f.fleet.Fleet.SLOAttainment
		}
	}
	m["sim.barrier_windows"] = float64(windows)
	m["tsmon.windows"] = float64(sealed)
	m["tsmon.incidents"] = float64(incidents)
	m["fleetobs.slo_attainment"] = ratio(slo, float64(farms))
	m["hostsim.shared_scale_mean"] = 1
	if farms > 0 {
		m["hostsim.shared_scale_mean"] = scale / float64(farms)
	}
	return m
}

// simSeconds is the session-seconds a pass simulated.
func (p *pass) simSeconds() float64 {
	var t float64
	for i := range p.sessions {
		t += p.sessions[i].dur.Seconds()
	}
	return t
}

// events is the simulation events a pass executed.
func (p *pass) events() uint64 {
	var n uint64
	for i := range p.sessions {
		n += p.sessions[i].events
	}
	return n
}

// hostMetrics computes the host-time end-to-end metrics of a run as
// medians over its passes, so one disturbed pass does not move them. Times
// are normalized to the reference host by each pass's calibration.
func hostMetrics(passes []*pass) (map[string]float64, error) {
	var speed, nsPerEv, allocs, setup []float64
	for _, p := range passes {
		ev := float64(p.events())
		wall := normalized(p.wall, p.calib)
		speed = append(speed, p.simSeconds()/wall)
		nsPerEv = append(nsPerEv, wall*1e9/ev)
		allocs = append(allocs, float64(p.mallocs)/ev)
		setup = append(setup, normalized(p.setup, p.calib))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sim_speed_x":       median(speed),
		"wall_ns_per_event": median(nsPerEv),
		"allocs_per_event":  median(allocs),
		"peak_rss_mb":       rss,
		"setup_s":           median(setup),
	}, nil
}

// passHostMetrics is the host-time per-layer set of one untraced pass, in
// raw (not normalized) host time.
func passHostMetrics(p *pass) map[string]float64 {
	m := map[string]float64{
		"host.calib_ms":                 float64(p.calib.Nanoseconds()) / 1e6,
		"sim.run_wall_s":                p.wall.Seconds(),
		"emulator.setup_us_per_session": float64(p.setup.Nanoseconds()) / 1e3 / float64(len(p.sessions)),
		"sim.barrier_stall_frac":        0,
		"obs.report_wall_ms":            0,
	}
	if f := p.farm; f != nil {
		m["sim.barrier_stall_frac"] = barrierStallFrac(f)
		m["obs.report_wall_ms"] = float64(f.reportWall.Nanoseconds()) / 1e6
	}
	return m
}

// barrierStallFrac is the share of the farm's shard-window wall time spent
// parked at barriers, summed over shards.
func barrierStallFrac(f *farmStats) float64 {
	var barrier time.Duration
	for _, sh := range f.stall.Shards {
		barrier += sh.Barrier
	}
	return ratio(float64(barrier), float64(f.stall.WallExec)*float64(len(f.stall.Shards)))
}

// profMetrics reads the merged critical-path report of a traced pass.
func profMetrics(r *prof.Report) map[string]float64 {
	m := make(map[string]float64)
	m["cp.frame_mean_ms"] = ratio(float64(r.Total)/1e6, float64(r.Frames))
	for _, g := range cpGroups {
		var d time.Duration
		for comp, v := range r.Comps {
			if strings.HasPrefix(comp, g.prefix) {
				d += v
			}
		}
		m["cp."+g.name+".frac"] = ratio(float64(d), float64(r.Total))
	}
	m["cp.demand_fetch_coverage"], _ = r.ClassCoverage("demand-fetch")
	return m
}

// runDigest combines the digests of a run's simulated passes.
func runDigest(passes []*pass) string {
	if len(passes) == 1 {
		return passes[0].digest
	}
	h := fnv.New64a()
	for _, p := range passes {
		io.WriteString(h, p.digest)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sessionSum fingerprints one session: every counter, and its full
// motion-to-photon and svm access latency sample streams.
func sessionSum(s *sessionStats, access *metrics.Distribution) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %d %d %v %d %d %d %d|", s.job, s.dur, s.events, s.res.FPS,
		s.res.Frames, s.res.Drops, s.res.StaleDrops, s.res.DeadlineDrops)
	writeSamples(h, s.res.Latency.Samples())
	writeSamples(h, access.Samples())
	fmt.Fprintf(h, "%v %d %d %d %d %d %d %d %d %d %d %d|", s.cohSum, s.cohCount,
		s.accesses, s.demand, s.joins, s.hits, s.waits, s.bytesCoh, s.bytesWaste,
		s.predTotal, s.predCorrect, s.suspensions)
	fmt.Fprintf(h, "%+v %d %d %d %d %d %d %d %v %d %d %d", s.dev, s.commands, s.kicks,
		s.elided, s.irqs, s.fenceAllocs, s.fencePeak, s.linkBytes, s.linkBusyMax,
		s.retries, s.giveups, s.batches)
	return h.Sum64()
}

// passDigest fingerprints every simulated-time output of a pass: each
// session's fingerprint in job order, plus the farm's deterministic fleet
// and monitor reports. Host time never enters it.
func passDigest(p *pass) string {
	h := fnv.New64a()
	var b [8]byte
	for i := range p.sessions {
		binary.LittleEndian.PutUint64(b[:], p.sessions[i].sum)
		h.Write(b[:])
	}
	if f := p.farm; f != nil {
		js, err := f.fleet.JSON()
		if err != nil {
			js = []byte(err.Error())
		}
		fmt.Fprintf(h, "%d %s %s", f.windows, js, f.mon.Digest)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func writeSamples(h io.Writer, vs []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
	h.Write(b[:])
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// ratio is num/den, 0 when den is 0 (a layer the workload never exercised).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median is Python's statistics.median.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(vs, n=4) (exclusive method).
// It needs at least two values; with one it returns that value three times.
func quartiles(vs []float64) [3]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
