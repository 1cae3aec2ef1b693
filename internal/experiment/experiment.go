// Package experiment defines the paper's experiments: for every figure in
// the evaluation section (Figures 1–9) it provides a generator that runs
// the corresponding parameter sweep on the simulator and returns the data
// series the paper plots. It also provides the ablation sweeps called out
// in DESIGN.md.
package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Options tunes experiment cost; the zero value is replaced by Defaults.
type Options struct {
	// Seeds is the number of independent repetitions averaged per point.
	Seeds int
	// BaseSeed roots all randomness.
	BaseSeed int64
	// Iterations is the application length in iterations.
	Iterations int
	// Quick shrinks sweeps (fewer x points) for use in benchmarks and
	// smoke tests.
	Quick bool
	// Serial disables the parallel sweep runner. Results are identical
	// either way (every cell is seeded independently and aggregation
	// order is fixed); Serial exists for debugging and for measuring
	// the speedup itself.
	Serial bool
}

// Defaults returns the options used to generate EXPERIMENTS.md.
func Defaults() Options {
	return Options{Seeds: 40, BaseSeed: 20030623, Iterations: 30}
}

func (o Options) fill() Options {
	d := Defaults()
	if o.Seeds == 0 {
		o.Seeds = d.Seeds
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = d.BaseSeed
	}
	if o.Iterations == 0 {
		o.Iterations = d.Iterations
	}
	return o
}

// Cell is one aggregated measurement (execution time in seconds unless a
// figure says otherwise).
type Cell struct {
	Mean, CI95, Min, Max float64
	N                    int
}

// FigureResult holds one reproduced figure: X values and one series of
// cells per technique/policy.
type FigureResult struct {
	ID, Title, XLabel, YLabel string
	Series                    []string
	X                         []float64
	Cells                     map[string][]Cell
}

// Get returns the cell for (series, xIndex).
func (f *FigureResult) Get(series string, i int) Cell { return f.Cells[series][i] }

// Table renders the figure as a table: one row per X, one column pair
// per series. A malformed figure (a series missing cells for some X)
// is reported as an error carrying the figure ID rather than a panic.
func (f *FigureResult) Table() (*trace.Table, error) {
	t := &trace.Table{Title: fmt.Sprintf("%s: %s", f.ID, f.Title)}
	t.Header = []string{f.XLabel}
	for _, s := range f.Series {
		t.Header = append(t.Header, s, s+"±")
	}
	for i, x := range f.X {
		row := []string{trace.FormatFloat(x)}
		for _, s := range f.Series {
			cells, ok := f.Cells[s]
			if !ok || i >= len(cells) {
				return nil, fmt.Errorf("experiment: figure %s: series %q has %d cells, want %d",
					f.ID, s, len(cells), len(f.X))
			}
			c := cells[i]
			row = append(row, trace.FormatFloat(c.Mean), trace.FormatFloat(c.CI95))
		}
		if err := t.TryAddRow(row...); err != nil {
			return nil, fmt.Errorf("experiment: figure %s, x=%g: %w", f.ID, x, err)
		}
	}
	return t, nil
}

// Plot renders the figure as an ASCII chart of the series means.
func (f *FigureResult) Plot() *trace.Plot {
	p := &trace.Plot{
		Title:  fmt.Sprintf("%s: %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		X:      f.X,
	}
	for _, s := range f.Series {
		ys := make([]float64, len(f.X))
		for i := range f.X {
			ys[i] = f.Cells[s][i].Mean
		}
		p.Series = append(p.Series, trace.PlotSeries{Name: s, Y: ys})
	}
	return p
}

// runSpec is the series half of a run: the technique and scenario
// executed over a cell's environment.
type runSpec struct {
	tech strategy.Technique
	sc   strategy.Scenario
}

// CellPanic is what sweep panics with when a simulated run panicked: the
// run's own panic value and stack, and the coordinates that name it.
type CellPanic struct {
	Figure, Series string
	X              float64
	Rep            int
	Seed           int64
	Value          any    // the run's panic value
	Stack          []byte // the worker's stack at the panic
}

func (c *CellPanic) Error() string {
	return fmt.Sprintf("experiment: figure %s, series %q, x=%g, repetition %d (seed %d): %v\n%s",
		c.Figure, c.Series, c.X, c.Rep, c.Seed, c.Value, c.Stack)
}

// sweep runs a full figure grid. env gives the environment of an x — the
// paper's techniques are compared on the same hosts under the same load,
// so the environment belongs to the cell (x, repetition) — and spec gives
// what a series runs there. Each cell's environment is built from the
// repetition's seed, and every series runs over it back to back on one
// worker. Cells are independent, so they fan out across all CPUs in
// (x, repetition) order; each worker owns one environment and rebuilds it
// in place for every cell it takes, which gives the cell what a new one
// would (platform.Environment.Rebuild). Results are accumulated in a fixed
// order so that parallel and serial execution produce bit-identical
// figures.
func sweep(o Options, fig *FigureResult, xs []float64, series []string,
	env func(x float64) platform.Config, spec func(x float64, series string) runSpec) {
	g := newGrid(o, fig, xs, series, env, spec)
	workers := runtime.GOMAXPROCS(0)
	if o.Serial || workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e platform.Environment
			for cell := range next {
				if !g.failed.Load() {
					g.run(&e, cell)
				}
			}
		}()
	}
	for cell := 0; cell < g.cells; cell++ {
		next <- cell
	}
	close(next)
	wg.Wait()
	g.finish()
}

// grid is one sweep in progress: its cells, the execution time of every
// run in them, and the panic of any cell that broke.
type grid struct {
	o      Options
	fig    *FigureResult
	series []string
	env    func(x float64) platform.Config
	spec   func(x float64, series string) runSpec

	cells int
	// totals[(xIdx*Seeds+rep)*len(series)+s] is one run's execution time.
	totals   []float64
	failures []*CellPanic
	failed   atomic.Bool
}

func newGrid(o Options, fig *FigureResult, xs []float64, series []string,
	env func(x float64) platform.Config, spec func(x float64, series string) runSpec) *grid {
	fig.X = xs
	fig.Series = series
	fig.Cells = map[string][]Cell{}
	cells := len(xs) * o.Seeds
	return &grid{o: o, fig: fig, series: series, env: env, spec: spec, cells: cells,
		totals: make([]float64, cells*len(series)), failures: make([]*CellPanic, cells)}
}

// run measures every series of one cell over e, rebuilt for the cell. A
// panicking run is recorded against the cell, not raised.
func (g *grid) run(e *platform.Environment, cell int) {
	x, rep := g.fig.X[cell/g.o.Seeds], cell%g.o.Seeds
	seed := g.o.BaseSeed + int64(rep)*7919
	current := ""
	defer func() {
		if v := recover(); v != nil {
			g.failures[cell] = &CellPanic{Figure: g.fig.ID, Series: current, X: x,
				Rep: rep, Seed: seed, Value: v, Stack: debug.Stack()}
			g.failed.Store(true)
		}
	}()
	e.Rebuild(g.env(x), rng.NewSource(seed))
	for s, name := range g.series {
		current = name
		run := g.spec(x, name)
		g.totals[cell*len(g.series)+s] = run.tech.Run(e.Bind(simkern.New()), run.sc).TotalTime
	}
}

// finish re-raises the first broken cell's panic on the caller's
// goroutine, or fills the figure's cells.
func (g *grid) finish() {
	for _, f := range g.failures {
		if f != nil {
			panic(f)
		}
	}
	// Aggregate in repetition order per (series, x): floating-point
	// accumulation stays deterministic no matter which worker ran which
	// cell.
	xs, seeds := g.fig.X, g.o.Seeds
	for s, name := range g.series {
		cells := make([]Cell, len(xs))
		for i := range xs {
			var a stats.Accumulator
			for rep := 0; rep < seeds; rep++ {
				a.Add(g.totals[(i*seeds+rep)*len(g.series)+s])
			}
			cells[i] = Cell{Mean: a.Mean(), CI95: a.CI95(), Min: a.Min(), Max: a.Max(), N: a.N()}
		}
		g.fig.Cells[name] = cells
	}
}

// dynamismGrid is the load-probability sweep used by Figures 4, 6, 7, 8.
func dynamismGrid(quick bool) []float64 {
	if quick {
		return []float64{0.05, 0.2, 0.6}
	}
	return []float64{0, 0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0}
}

// All returns every figure generator keyed by ID.
func All() map[string]func(Options) *FigureResult {
	return map[string]func(Options) *FigureResult{
		"fig1": Fig1,
		"fig2": Fig2,
		"fig3": Fig3,
		"fig4": Fig4,
		"fig5": Fig5,
		"fig6": Fig6,
		"fig7": Fig7,
		"fig8": Fig8,
		"fig9": Fig9,
	}
}

// IDs returns the figure IDs in order.
func IDs() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
}
