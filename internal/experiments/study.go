package experiments

import (
	"time"

	"repro/internal/emulator"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Table1Row is one row of Table 1: a category's device set and scale.
type Table1Row struct {
	Type     string
	Devices  []string
	Count    int
	Duration string
}

// Table1 returns the workload taxonomy as implemented by the generators.
func Table1() []Table1Row {
	return []Table1Row{
		{"UHD Video", []string{"Codec", "GPU", "Display"}, 10, "5 min per app"},
		{"360 Video", []string{"Codec", "GPU", "Display"}, 10, "5 min per app"},
		{"Camera", []string{"Camera", "ISP", "GPU", "Display"}, 10, "5 min per app"},
		{"AR", []string{"Camera", "ISP", "GPU", "Display"}, 10, "5 min per app"},
		{"Livestream", []string{"Codec", "GPU", "Display", "NIC"}, 10, "5 min per app"},
	}
}

// PlatformTrace is one platform's shared-memory characterization (§2.3).
type PlatformTrace struct {
	Platform string
	// RegionSizes in MiB (Fig. 4) — modal values 9.9 (display buffers)
	// and 15.8 (UHD frames).
	RegionSizes metrics.Distribution
	// CoherenceCost in ms (Fig. 5, emulators only).
	CoherenceCost metrics.Distribution
	// SlackIntervals in ms (Fig. 6) — avg ~17 ms.
	SlackIntervals metrics.Distribution
	// APICallsPerSecond is the HAL call rate (§2.3 reports 261-323).
	APICallsPerSecond float64
}

// StudyResult is the full §2.3 measurement study.
type StudyResult struct {
	Table1 []Table1Row
	Traces []PlatformTrace // native device, GAE, QEMU-KVM
}

// RunStudy reproduces the §2.3 measurement: the emerging-app mix traced on
// the physical device and the two open-source emulators, yielding the data
// behind Figs. 4, 5, and 6.
func RunStudy(cfg Config) *StudyResult {
	platforms := []struct {
		preset  emulator.Preset
		machine MachineSpec
	}{
		{emulator.NativeDevice(), Pixel},
		{emulator.GAE(), HighEnd},
		{emulator.QEMUKVM(), HighEnd},
	}
	var cells []cell
	for pi, plat := range platforms {
		cells = append(cells, appCells(cfg, plat.preset, plat.machine, 600+pi, allCats)...)
	}
	for i := range cells {
		// The §2.3 study ran Full-HD+ panels (2400x1080), which is where
		// Fig. 4's 9.9 MiB display-buffer mode comes from; the UHD panels
		// belong to §5's evaluation.
		cells[i].setup = func(_ *workload.Session, spec *workload.Spec) {
			spec.DisplayW, spec.DisplayH = workload.FHDPWidth, workload.FHDPHeight
		}
	}
	stats := sweep(cfg, cells, svmStats)
	out := &StudyResult{Table1: Table1()}
	for _, plat := range platforms {
		trace := PlatformTrace{Platform: plat.preset.Name}
		var accesses int
		var total time.Duration
		for i, c := range cells {
			st := stats[i]
			if c.preset.Name != plat.preset.Name || st == nil {
				continue
			}
			trace.RegionSizes.Merge(&st.RegionSizes)
			trace.CoherenceCost.Merge(&st.CoherenceCost)
			trace.SlackIntervals.Merge(&st.SlackIntervals)
			accesses += st.Accesses
			total += cfg.Duration
		}
		if total > 0 {
			trace.APICallsPerSecond = float64(accesses) / total.Seconds()
		}
		out.Traces = append(out.Traces, trace)
	}
	return out
}
