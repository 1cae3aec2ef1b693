package experiment

import (
	"repro/internal/loadgen"
	"repro/internal/platform"
)

// Extension experiments beyond the paper's evaluation, exploring the
// directions its conclusion sketches.

// ExtReclamation studies the desktop-grid scenario the paper defers
// ("Although our approach could be used when resource reclamations and
// failures occur, in this work we focus solely on performance issues"):
// hosts are reclaimed by their owners at random times — afterwards they
// crawl at 2% speed — and the x axis sweeps the fraction of hosts
// reclaimed during the run. Doing nothing strands processes on reclaimed
// hosts; swapping and CR escape them.
func ExtReclamation(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "ext-reclamation",
		Title:  "Resource reclamation study (4 active / 32 total, light base load)",
		XLabel: "reclaim_probability",
		YLabel: "execution time (s)",
	}
	a := fig4App(o, 1e6)
	grid := []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8}
	if o.Quick {
		grid = []float64{0, 0.4}
	}
	sweep(o, fig, grid, []string{"none", "swap", "dlb", "cr"},
		func(x float64) platform.Config {
			return platform.Default(32, loadgen.Aggregate{Models: []loadgen.Model{
				loadgen.NewOnOff(0.05), // light background load
				loadgen.Reclaim{Prob: x, Horizon: 4000, Level: 49},
			}})
		},
		techniqueSpec(4, a))
	return fig
}

// Extensions returns the extension-experiment generators keyed by ID.
func Extensions() map[string]func(Options) *FigureResult {
	return map[string]func(Options) *FigureResult{
		"ext-reclamation": ExtReclamation,
	}
}

// ExtensionIDs returns the extension IDs in order.
func ExtensionIDs() []string { return []string{"ext-reclamation"} }
