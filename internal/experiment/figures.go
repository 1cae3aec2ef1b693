package experiment

import (
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// Fig1 reproduces Figure 1, the payback-distance illustration:
// application progress (iterations completed) versus time for a run that
// swaps and one that does not, using the paper's worked example —
// iteration time 10 s, swap time 10 s, doubled post-swap performance. The
// swap happens after iteration 3 (t=30); progress curves cross exactly
// payback-distance iterations after the swap completes.
func Fig1(o Options) *FigureResult {
	fig := &FigureResult{
		ID:     "fig1",
		Title:  "Payback distance: application progress vs time (iter 10s, swap 10s, 2x speedup)",
		XLabel: "time_s",
		YLabel: "iterations completed",
	}
	const (
		iterTime = 10.0
		swapTime = 10.0
		swapAt   = 30.0
		speedup  = 2.0
		horizon  = 80.0
		tick     = 2.0
		postIter = iterTime / speedup
		resumeAt = swapAt + swapTime
		preIters = swapAt / iterTime
	)
	progressNoSwap := func(t float64) float64 { return t / iterTime }
	progressSwap := func(t float64) float64 {
		switch {
		case t <= swapAt:
			return t / iterTime
		case t <= resumeAt:
			return preIters
		default:
			return preIters + (t-resumeAt)/postIter
		}
	}
	var xs []float64
	noswap := []Cell{}
	swap := []Cell{}
	for t := 0.0; t <= horizon; t += tick {
		xs = append(xs, t)
		noswap = append(noswap, Cell{Mean: progressNoSwap(t), N: 1})
		swap = append(swap, Cell{Mean: progressSwap(t), N: 1})
	}
	fig.X = xs
	fig.Series = []string{"no-swap", "swap", "payback_iters"}
	payback := core.PaybackDistance(swapTime, iterTime, 1, speedup)
	pb := make([]Cell, len(xs))
	for i := range pb {
		pb[i] = Cell{Mean: payback, N: 1}
	}
	fig.Cells = map[string][]Cell{"no-swap": noswap, "swap": swap, "payback_iters": pb}
	return fig
}

// Fig2 reproduces Figure 2: an example CPU load trace from the ON/OFF
// source model with the paper's parameters p=0.3, q=0.08.
func Fig2(o Options) *FigureResult {
	o = o.fill()
	return loadTraceFigure("fig2", "ON/OFF CPU load example (p=0.3, q=0.08)",
		loadgen.OnOff{P: 0.3, Q: 0.08, Step: loadgen.DefaultStep}, o)
}

// Fig3 reproduces Figure 3: an example CPU load trace from the degenerate
// hyperexponential model (uniform arrivals, heavy-tailed lifetimes,
// multiple simultaneous competing processes).
func Fig3(o Options) *FigureResult {
	o = o.fill()
	return loadTraceFigure("fig3", "Hyperexponential CPU load example (mean lifetime 300s)",
		loadgen.NewHyperExp(300), o)
}

func loadTraceFigure(id, title string, model loadgen.Model, o Options) *FigureResult {
	fig := &FigureResult{ID: id, Title: title, XLabel: "time_s", YLabel: "competing processes"}
	horizon := 3600.0
	if o.Quick {
		horizon = 600
	}
	tr := loadgen.NewTrace(model.NewSource(rng.NewSource(o.BaseSeed), 0))
	samples := tr.Sample(horizon, loadgen.DefaultStep)
	var xs []float64
	var cells []Cell
	for i, v := range samples {
		xs = append(xs, float64(i)*loadgen.DefaultStep)
		cells = append(cells, Cell{Mean: float64(v), N: 1})
	}
	fig.X = xs
	fig.Series = []string{"load"}
	fig.Cells = map[string][]Cell{"load": cells}
	return fig
}

// fig4App is the application studied in the technique-comparison figures:
// roughly two minutes of compute per iteration on the reference
// processor, 1 MB communicated per iteration.
func fig4App(o Options, stateBytes float64) app.Iterative {
	return app.Iterative{
		Iterations:      o.Iterations,
		WorkPerProcIter: 120 * app.RefSpeed,
		BytesPerIter:    1e6,
		StateBytes:      stateBytes,
	}
}

// Fig4 reproduces Figure 4: execution time of NONE, SWAP (greedy policy),
// DLB and CR across the full range of environment dynamism (ON/OFF load
// probability). 4 active processes, 32 total processors, 1 MB process
// state.
func Fig4(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "fig4",
		Title:  "Execution time of performance techniques vs environment dynamism (4 active / 32 total, 1MB state)",
		XLabel: "load_probability",
		YLabel: "execution time (s)",
	}
	a := fig4App(o, 1e6)
	sweep(o, fig, dynamismGrid(o.Quick), []string{"none", "swap", "dlb", "cr"},
		onOffEnv(32), techniqueSpec(4, a))
	return fig
}

// onOffEnv is the environment of the dynamism sweeps: x is the ON/OFF
// load probability.
func onOffEnv(hosts int) func(x float64) platform.Config {
	return func(x float64) platform.Config { return platform.Default(hosts, loadgen.NewOnOff(x)) }
}

// techniqueSpec runs the technique a series is named after, under the
// greedy policy.
func techniqueSpec(active int, a app.Iterative) func(x float64, series string) runSpec {
	return func(_ float64, series string) runSpec {
		tech, _ := strategy.ByName(series)
		return runSpec{tech: tech, sc: strategy.Scenario{Active: active, App: a, Policy: core.Greedy()}}
	}
}

// Fig5 reproduces Figure 5: execution time across a range of
// over-allocation with 8 active processes, moderate dynamism (p=0.2) and
// 1 MB process state. X is over-allocation in percent: 100% means 8
// spares on top of the 8 active processors.
func Fig5(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "fig5",
		Title:  "Execution time vs over-allocation (8 active, p=0.2, 1MB state)",
		XLabel: "overallocation_pct",
		YLabel: "execution time (s)",
	}
	a := fig4App(o, 1e6)
	grid := []float64{0, 25, 50, 100, 150, 200, 300}
	if o.Quick {
		grid = []float64{0, 100, 300}
	}
	sweep(o, fig, grid, []string{"none", "swap", "dlb", "cr"},
		func(x float64) platform.Config {
			return platform.Default(8+int(8*x/100+0.5), loadgen.NewOnOff(0.2))
		},
		techniqueSpec(8, a))
	return fig
}

// Fig6 reproduces Figure 6: the effect of process size. SWAP and CR are
// run with 1 MB and 1 GB process states across the dynamism range (NONE
// as reference; NONE and DLB do not depend on process size).
func Fig6(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "fig6",
		Title:  "Execution time for 1MB vs 1GB process state (4 active / 32 total)",
		XLabel: "load_probability",
		YLabel: "execution time (s)",
	}
	sweep(o, fig, dynamismGrid(o.Quick),
		[]string{"none", "swap-1MB", "cr-1MB", "swap-1GB", "cr-1GB"},
		onOffEnv(32),
		func(_ float64, series string) runSpec {
			var tech strategy.Technique = strategy.None{}
			state := 1e6
			switch series {
			case "swap-1MB":
				tech = strategy.Swap{}
			case "cr-1MB":
				tech = strategy.CR{}
			case "swap-1GB":
				tech, state = strategy.Swap{}, 1e9
			case "cr-1GB":
				tech, state = strategy.CR{}, 1e9
			}
			return runSpec{
				tech: tech,
				sc:   strategy.Scenario{Active: 4, App: fig4App(o, state), Policy: core.Greedy()},
			}
		})
	return fig
}

// policyFigure runs NONE plus the three policies across dynamism.
func policyFigure(o Options, fig *FigureResult, active int, a app.Iterative) *FigureResult {
	sweep(o, fig, dynamismGrid(o.Quick), []string{"none", "greedy", "safe", "friendly"},
		onOffEnv(32),
		func(_ float64, series string) runSpec {
			if series == "none" {
				return runSpec{tech: strategy.None{}, sc: strategy.Scenario{Active: active, App: a}}
			}
			pol, err := core.Named(series)
			if err != nil {
				panic(err)
			}
			return runSpec{tech: strategy.Swap{}, sc: strategy.Scenario{Active: active, App: a, Policy: pol}}
		})
	return fig
}

// Fig7 reproduces Figure 7: execution time for the greedy, safe and
// friendly swapping policies across environment dynamism, with 100 MB
// process state, 4 active processes and 32 total processors.
func Fig7(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "fig7",
		Title:  "Swapping policies vs environment dynamism (4 active / 32 total, 100MB state)",
		XLabel: "load_probability",
		YLabel: "execution time (s)",
	}
	a := fig4App(o, 100e6)
	return policyFigure(o, fig, 4, a)
}

// Fig8 reproduces Figure 8: the swapping policies when process state is
// large (1 GB, swap time about twice the iteration time), with 2 active
// processes out of 32.
func Fig8(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "fig8",
		Title:  "Swapping policies with large (1GB) process state (2 active / 32 total)",
		XLabel: "load_probability",
		YLabel: "execution time (s)",
	}
	// Iteration sized so the 1 GB swap time (~167 s on the 6 MB/s link)
	// is about twice the iteration time, as in the paper's example.
	a := app.Iterative{
		Iterations:      o.Iterations,
		WorkPerProcIter: 83 * app.RefSpeed,
		BytesPerIter:    1e6,
		StateBytes:      1e9,
	}
	return policyFigure(o, fig, 2, a)
}

// Fig9 reproduces Figure 9: NONE, SWAP, DLB and CR under the
// hyperexponential load model, sweeping the mean competing-process
// lifetime (the figure's dynamism axis).
func Fig9(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "fig9",
		Title:  "Techniques under hyperexponential load vs mean process lifetime (4 active / 32 total, 1MB state)",
		XLabel: "mean_lifetime_s",
		YLabel: "execution time (s)",
	}
	a := fig4App(o, 1e6)
	grid := []float64{60, 150, 300, 600, 1200, 2400}
	if o.Quick {
		grid = []float64{150, 600}
	}
	sweep(o, fig, grid, []string{"none", "swap", "dlb", "cr"},
		func(x float64) platform.Config { return platform.Default(32, loadgen.NewHyperExp(x)) },
		techniqueSpec(4, a))
	return fig
}
