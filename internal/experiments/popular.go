package experiments

import (
	"repro/internal/emulator"
	"repro/internal/workload"
)

// PopularCell is one bar of Fig. 15.
type PopularCell struct {
	Emulator string
	MeanFPS  float64
	Apps     int // runnable of the top-25 (§5.5 compatibility)
}

// PopularResult is the Fig. 15 comparison.
type PopularResult struct {
	Machine string
	Cells   []PopularCell
}

// Of returns the cell for an emulator.
func (r *PopularResult) Of(name string) *PopularCell {
	for i := range r.Cells {
		if r.Cells[i].Emulator == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// popularMix is the first cfg.PopularApps apps of the Fig. 15 mix.
func popularMix(cfg Config) []workload.PopularKind {
	mix := workload.PopularMix()
	return mix[:min(cfg.PopularApps, len(mix))]
}

// RunPopular reproduces Fig. 15: the top-25 popular apps across the six
// emulators on the high-end machine.
func RunPopular(cfg Config) *PopularResult {
	mix := popularMix(cfg)
	emus := emulator.All()
	var cells []cell
	for ei, p := range emus {
		// Compatibility: the preset runs only PopularCompat of the 25;
		// scale proportionally for smaller configs.
		runnable := min(p.PopularCompat*len(mix)/25, len(mix))
		cells = append(cells, popularCells(cfg, p, 300+ei, mix, runnable)...)
	}
	runs := sweep(cfg, cells, result)
	out := &PopularResult{Machine: HighEnd.Name}
	for _, p := range emus {
		pc := PopularCell{Emulator: p.Name}
		pc.MeanFPS, pc.Apps = meanFPS(cells, runs, func(c cell) bool { return c.preset.Name == p.Name })
		out.Cells = append(out.Cells, pc)
	}
	return out
}
