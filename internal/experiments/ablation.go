package experiments

import (
	"repro/internal/emulator"
	"repro/internal/metrics"
)

// AblationResult is Fig. 12: per-category FPS of full vSoC against the
// no-prefetch (write-invalidate) and no-fence (atomic ordering) variants on
// the high-end machine.
type AblationResult struct {
	Categories []string
	Full       []float64
	NoPrefetch []float64
	NoFence    []float64
}

// AvgDropNoPrefetch returns the mean relative FPS drop with the prefetch
// engine disabled (the paper reports 30% average, 66% for video).
func (r *AblationResult) AvgDropNoPrefetch() float64 { return avgDrop(r.Full, r.NoPrefetch) }

// AvgDropNoFence returns the mean relative FPS drop with fences disabled
// (the paper reports 11%).
func (r *AblationResult) AvgDropNoFence() float64 { return avgDrop(r.Full, r.NoFence) }

// VideoDropNoPrefetch returns the relative FPS drop on the two video
// categories with prefetch disabled (the paper's "staggering 66%").
func (r *AblationResult) VideoDropNoPrefetch() float64 {
	return avgDrop(r.Full[:2], r.NoPrefetch[:2])
}

func avgDrop(full, ablated []float64) float64 {
	var sum float64
	var n int
	for i := range full {
		if full[i] > 0 {
			sum += (full[i] - ablated[i]) / full[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunAblation reproduces Fig. 12 on the high-end machine. The
// (variant, category, app) sessions fan out across Config.Workers and are
// averaged in cell order.
func RunAblation(cfg Config) *AblationResult {
	variants := []emulator.Preset{
		emulator.VSoC(), emulator.VSoCNoPrefetch(), emulator.VSoCNoFence(),
	}
	var cells []cell
	for vi, v := range variants {
		cells = append(cells, appCells(cfg, v, HighEnd, 100+vi, allCats)...)
	}
	runs := sweep(cfg, cells, result)
	out := &AblationResult{}
	for cat := 0; cat < emulator.NumCategories; cat++ {
		out.Categories = append(out.Categories, emulator.CategoryNames[cat])
	}
	means := make([][]float64, len(variants))
	for vi, v := range variants {
		for cat := 0; cat < emulator.NumCategories; cat++ {
			mean, _ := meanFPS(cells, runs, func(c cell) bool { return c.preset.Name == v.Name && c.cat == cat })
			means[vi] = append(means[vi], mean)
		}
	}
	out.Full, out.NoPrefetch, out.NoFence = means[0], means[1], means[2]
	return out
}

// PopularAblationResult is the §5.5 breakdown: how many of the popular apps
// lose FPS under each ablation and the average drop.
type PopularAblationResult struct {
	Apps               int
	FullMean           float64
	NoPrefetchMean     float64
	NoFenceMean        float64
	AppsDropNoPrefetch int
	AppsDropNoFence    int
}

// RunPopularAblation reproduces the §5.5 ablation numbers (paper: 80% and
// 96% of apps drop; average FPS -6% and -8%).
func RunPopularAblation(cfg Config) *PopularAblationResult {
	mix := popularMix(cfg)
	variants := []emulator.Preset{
		emulator.VSoC(), emulator.VSoCNoPrefetch(), emulator.VSoCNoFence(),
	}
	// Every (variant, app) pair is one independent session; failures record
	// 0 FPS.
	var cells []cell
	for vi, p := range variants {
		cells = append(cells, popularCells(cfg, p, 200+vi, mix, len(mix))...)
	}
	runs := sweep(cfg, cells, result)
	fps := make([][]float64, len(variants))
	for i, r := range runs {
		vi := i / len(mix)
		v := 0.0
		if r != nil {
			v = r.FPS
		}
		fps[vi] = append(fps[vi], v)
	}
	out := &PopularAblationResult{Apps: len(mix)}
	var d metrics.Distribution
	for _, v := range fps[0] {
		d.Add(v)
	}
	out.FullMean = d.Mean()
	var np, nf metrics.Distribution
	for i := range fps[0] {
		np.Add(fps[1][i])
		nf.Add(fps[2][i])
		const eps = 0.5 // below half an FPS is measurement noise
		if fps[0][i]-fps[1][i] > eps {
			out.AppsDropNoPrefetch++
		}
		if fps[0][i]-fps[2][i] > eps {
			out.AppsDropNoFence++
		}
	}
	out.NoPrefetchMean = np.Mean()
	out.NoFenceMean = nf.Mean()
	return out
}
