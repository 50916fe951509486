package experiments

import (
	"repro/internal/emulator"
	"repro/internal/metrics"
)

// FPSCell is one bar of Figs. 10/11: an emulator's mean FPS over the
// runnable apps of one category.
type FPSCell struct {
	Emulator string
	Category string
	MeanFPS  float64
	// Apps is how many of the category's apps the emulator ran (§5.3's
	// compatibility counts); 0 means the category is unsupported.
	Apps int
	// MeanLatencyMS is the mean motion-to-photon latency over runnable
	// apps (Figs. 13/14); zero for video categories where no input is
	// involved.
	MeanLatencyMS float64
}

// EmergingResult holds one machine's full emerging-app sweep: Figs. 10+13
// (high-end) or 11+14 (middle-end).
type EmergingResult struct {
	Machine string
	Cells   []FPSCell // emulator-major, category-minor order
}

// Cell returns the cell for (emulator, category).
func (r *EmergingResult) Cell(emu string, cat int) *FPSCell {
	for i := range r.Cells {
		if r.Cells[i].Emulator == emu && r.Cells[i].Category == emulator.CategoryNames[cat] {
			return &r.Cells[i]
		}
	}
	return nil
}

// MeanFPSOf averages an emulator's FPS across its runnable categories.
func (r *EmergingResult) MeanFPSOf(emu string) float64 {
	var sum float64
	var n int
	for _, c := range r.Cells {
		if c.Emulator == emu && c.Apps > 0 {
			sum += c.MeanFPS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanLatencyOf averages motion-to-photon latency across the camera, AR,
// and livestream categories.
func (r *EmergingResult) MeanLatencyOf(emu string) float64 {
	var sum float64
	var n int
	for _, c := range r.Cells {
		if c.Emulator == emu && c.Apps > 0 && c.MeanLatencyMS > 0 {
			sum += c.MeanLatencyMS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunEmergingSweep reproduces Figs. 10/13 (HighEnd) or 11/14 (MidEnd): all
// six emulators across the five Table 1 categories.
func RunEmergingSweep(cfg Config, machine MachineSpec) *EmergingResult {
	emus := emulator.All()
	var cells []cell
	for ei, p := range emus {
		cells = append(cells, appCells(cfg, p, machine, ei, allCats)...)
	}
	runs := sweep(cfg, cells, result)
	out := &EmergingResult{Machine: machine.Name}
	for _, p := range emus {
		for cat := 0; cat < emulator.NumCategories; cat++ {
			match := func(c cell) bool { return c.preset.Name == p.Name && c.cat == cat }
			fc := FPSCell{Emulator: p.Name, Category: emulator.CategoryNames[cat]}
			fc.MeanFPS, fc.Apps = meanFPS(cells, runs, match)
			var lat metrics.Distribution
			for i, c := range cells {
				if r := runs[i]; r != nil && match(c) && r.Latency.Count() > 0 {
					lat.Add(r.Latency.Mean())
				}
			}
			fc.MeanLatencyMS = lat.Mean()
			out.Cells = append(out.Cells, fc)
		}
	}
	return out
}
