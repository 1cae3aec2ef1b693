package experiment

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/strategy"
)

// A run over an environment that earlier runs have already used must be
// the run a freshly built platform gives, in every field of its Result
// and whichever run went first or furthest.
func TestReplayEqualsRebuild(t *testing.T) {
	envs := map[string]loadgen.Model{
		"onoff":    loadgen.NewOnOff(0.2),
		"hyperexp": loadgen.NewHyperExp(300),
		"reclaim": loadgen.Aggregate{Models: []loadgen.Model{
			loadgen.NewOnOff(0.05),
			loadgen.Reclaim{Prob: 0.4, Horizon: 4000, Level: 49},
		}},
	}
	a := fig4App(Options{Iterations: 15}, 1e6)
	specs := map[string]runSpec{
		"none":      {strategy.None{}, strategy.Scenario{Active: 4, App: a}},
		"swap":      {strategy.Swap{}, strategy.Scenario{Active: 4, App: a, Policy: core.Greedy()}},
		"swap-safe": {strategy.Swap{}, strategy.Scenario{Active: 4, App: a, Policy: core.Safe()}},
		"dlb":       {strategy.DLB{}, strategy.Scenario{Active: 4, App: a}},
		"cr":        {strategy.CR{}, strategy.Scenario{Active: 4, App: a, Policy: core.Greedy()}},
	}
	const seed = 20030623 + 7919
	for envName, model := range envs {
		cfg := platform.Default(32, model)
		fresh := map[string]strategy.Result{}
		var names []string
		for name, s := range specs {
			fresh[name] = s.tech.Run(platform.New(simkern.New(), cfg, rng.NewSource(seed)), s.sc)
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			return fresh[names[i]].TotalTime < fresh[names[j]].TotalTime
		})
		shortestFirst := append([]string(nil), names...)
		longestFirst := append([]string(nil), names...)
		for i, j := 0, len(longestFirst)-1; i < j; i, j = i+1, j-1 {
			longestFirst[i], longestFirst[j] = longestFirst[j], longestFirst[i]
		}
		for _, order := range [][]string{shortestFirst, longestFirst} {
			e := platform.NewEnvironment(cfg, rng.NewSource(seed))
			for _, name := range order {
				s := specs[name]
				got := s.tech.Run(e.Bind(simkern.New()), s.sc)
				if !reflect.DeepEqual(got, fresh[name]) {
					t.Errorf("%s: %s replayed in order %v differs from a fresh platform:\n got %+v\nwant %+v",
						envName, name, order, got, fresh[name])
				}
			}
		}
	}
}

// An environment that has served other cells — another seed, another
// load model, fewer and then more hosts — and is rebuilt for a cell gives
// every technique the whole Result a new environment gives it, for every
// kind of load source: those restarted in place and those built anew.
func TestRebuiltEnvironmentEqualsFresh(t *testing.T) {
	traces := loadgen.TraceSet{Traces: []loadgen.Replay{
		{Segments: []loadgen.Segment{{Dur: 400, N: 0}, {Dur: 900, N: 2}, {Dur: 300, N: 0}}, Tail: 1},
		{Segments: []loadgen.Segment{{Dur: 1500, N: 1}}, Tail: 0},
	}}
	models := []struct {
		name  string
		model loadgen.Model
	}{
		{"onoff", loadgen.NewOnOff(0.2)},
		{"hyperexp", loadgen.NewHyperExp(300)},
		{"reclaim", loadgen.Reclaim{Prob: 0.5, Horizon: 3000, Level: 49}},
		{"aggregate", loadgen.Aggregate{Models: []loadgen.Model{
			loadgen.NewOnOff(0.05), loadgen.Reclaim{Prob: 0.4, Horizon: 4000, Level: 49}}}},
		{"constant", loadgen.Constant{N: 1}},
		{"traceset", traces},
		{"onoff-dynamic", loadgen.NewOnOff(0.6)},
	}
	a := fig4App(Options{Iterations: 15}, 1e6)
	specs := []runSpec{
		{strategy.None{}, strategy.Scenario{Active: 4, App: a}},
		{strategy.Swap{}, strategy.Scenario{Active: 4, App: a, Policy: core.Greedy()}},
		{strategy.DLB{}, strategy.Scenario{Active: 4, App: a}},
		{strategy.CR{}, strategy.Scenario{Active: 4, App: a, Policy: core.Greedy()}},
	}
	runAll := func(e *platform.Environment) []strategy.Result {
		var out []strategy.Result
		for _, s := range specs {
			out = append(out, s.tech.Run(e.Bind(simkern.New()), s.sc))
		}
		return out
	}
	var e platform.Environment
	for i, m := range models {
		prev := models[(i+len(models)-1)%len(models)]
		// The cell before: another model and seed on 8 hosts, run through.
		e.Rebuild(platform.Default(8, prev.model), rng.NewSource(int64(100+i)))
		runAll(&e)
		for _, cell := range []struct {
			hosts int
			seed  int64
		}{{32, 20030623}, {8, 424242}, {32, 7}} {
			cfg := platform.Default(cell.hosts, m.model)
			e.Rebuild(cfg, rng.NewSource(cell.seed))
			got, want := runAll(&e), runAll(platform.NewEnvironment(cfg, rng.NewSource(cell.seed)))
			for k := range specs {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Errorf("%s after %s, %d hosts, seed %d: %s over a rebuilt environment differs from a new one:\n got %+v\nwant %+v",
						m.name, prev.name, cell.hosts, cell.seed, specs[k].tech.Name(), got[k], want[k])
				}
			}
		}
	}
}

// A sweep's cells may run in any order on one worker: the worker's
// environment, rebuilt cell after cell across host counts and load
// models, gives the figure the sweep gives.
func TestSweepCellsInReverseOnOneWorker(t *testing.T) {
	o := Options{Seeds: 3, BaseSeed: 11, Serial: true}
	xs := []float64{0, 100, 300, 50}
	series := []string{"none", "swap", "dlb", "cr"}
	env := func(x float64) platform.Config {
		var m loadgen.Model = loadgen.NewOnOff(0.3)
		if x == 100 {
			m = loadgen.NewHyperExp(300)
		}
		return platform.Default(4+int(4*x/100), m)
	}
	spec := func(x float64, series string) runSpec {
		tech, _ := strategy.ByName(series)
		return runSpec{tech: tech, sc: strategy.Scenario{Active: 4,
			App: fig4App(Options{Iterations: 12}, 1e6), Policy: core.Greedy()}}
	}
	want := &FigureResult{ID: "reverse"}
	sweep(o, want, xs, series, env, spec)

	got := &FigureResult{ID: "reverse"}
	g := newGrid(o, got, xs, series, env, spec)
	var e platform.Environment
	for cell := g.cells - 1; cell >= 0; cell-- {
		g.run(&e, cell)
	}
	g.finish()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cells in reverse on one worker:\n got %+v\nwant %+v", got.Cells, want.Cells)
	}
}

// unevenFigure is a sweep whose cells differ in cost by an order of
// magnitude (the application is longer at larger x), so workers finish
// cells out of order.
func unevenFigure(o Options) *FigureResult {
	fig := &FigureResult{ID: "uneven"}
	sweep(o, fig, []float64{40, 3, 25, 6}, []string{"none", "swap", "dlb", "cr"},
		func(float64) platform.Config { return platform.Default(16, loadgen.NewOnOff(0.3)) },
		func(x float64, series string) runSpec {
			tech, _ := strategy.ByName(series)
			return runSpec{tech: tech, sc: strategy.Scenario{Active: 4,
				App: fig4App(Options{Iterations: int(x)}, 1e6), Policy: core.Greedy()}}
		})
	return fig
}

func TestSweepParallelEqualsSerialAtEveryWidth(t *testing.T) {
	o := Options{Seeds: 3, BaseSeed: 11}
	serial := o
	serial.Serial = true
	want := unevenFigure(serial)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := unevenFigure(o); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: parallel sweep differs from serial:\n got %+v\nwant %+v",
				procs, got.Cells, want.Cells)
		}
	}
}

// deadlocked panics the way strategy.run does on a stalled simulation.
type deadlocked struct{}

func (deadlocked) Name() string { return "deadlocked" }
func (deadlocked) Run(*platform.Platform, strategy.Scenario) strategy.Result {
	panic("strategy: run deadlocked stalled in iteration 0: the event queue drained before the last iteration")
}

func TestSweepNamesThePanickingCell(t *testing.T) {
	a := app.Iterative{Iterations: 2, WorkPerProcIter: app.RefSpeed, BytesPerIter: 1e3, StateBytes: 1e3}
	for _, tc := range []struct {
		name    string
		o       Options
		badX    float64
		badSer  string
		wantRep int
	}{
		{"serial, first repetition reported", Options{Seeds: 3, BaseSeed: 5, Serial: true}, 0.5, "swap", 0},
		{"parallel, the only broken cell", Options{Seeds: 1, BaseSeed: 5}, 0.9, "none", 0},
		{"serial, last series of last x", Options{Seeds: 2, BaseSeed: 9, Serial: true}, 0.9, "swap", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				v := recover()
				err, _ := v.(error)
				var cp *CellPanic
				if !errors.As(err, &cp) {
					t.Fatalf("sweep panicked with %T %v, want *CellPanic", v, v)
				}
				wantSeed := tc.o.BaseSeed + int64(tc.wantRep)*7919
				if cp.Figure != "figX" || cp.Series != tc.badSer || cp.X != tc.badX ||
					cp.Rep != tc.wantRep || cp.Seed != wantSeed {
					t.Errorf("CellPanic names %+v", cp)
				}
				msg := cp.Error()
				for _, part := range []string{"figure figX", `series "` + tc.badSer + `"`,
					"repetition 0", "run deadlocked stalled", "sweep_test.go"} {
					if !strings.Contains(msg, part) {
						t.Errorf("message lacks %q:\n%s", part, msg)
					}
				}
			}()
			fig := &FigureResult{ID: "figX"}
			sweep(tc.o, fig, []float64{0.1, 0.5, 0.9}, []string{"none", "swap"}, onOffEnv(4),
				func(x float64, series string) runSpec {
					if x == tc.badX && series == tc.badSer {
						return runSpec{tech: deadlocked{}}
					}
					tech, _ := strategy.ByName(series)
					return runSpec{tech: tech, sc: strategy.Scenario{Active: 2, App: a}}
				})
			t.Fatal("sweep returned; the broken cell's panic was lost")
		})
	}
}

// A panic raised inside a technique's run — here the policy a swap
// boundary decides with rejects its own history window — is the run's
// panic: sweep names the cell it broke, serial or parallel, instead of the
// process dying with it.
func TestSweepNamesAPanicInsideARun(t *testing.T) {
	a := app.Iterative{Iterations: 3, WorkPerProcIter: app.RefSpeed, BytesPerIter: 1e3, StateBytes: 1e3}
	bad := core.Policy{Name: "bad", HistoryWindow: -1}
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"parallel", false}} {
		t.Run(mode.name, func(t *testing.T) {
			defer func() {
				v := recover()
				err, _ := v.(error)
				var cp *CellPanic
				if !errors.As(err, &cp) {
					t.Fatalf("sweep panicked with %T %v, want *CellPanic", v, v)
				}
				if cp.Figure != "figX" || cp.Series != "swap" || cp.X != 0.5 || cp.Rep != 0 {
					t.Errorf("CellPanic names %+v", cp)
				}
				if !strings.Contains(cp.Error(), `policy "bad": negative history window`) {
					t.Errorf("message lacks the run's panic:\n%s", cp.Error())
				}
			}()
			fig := &FigureResult{ID: "figX"}
			sweep(Options{Seeds: 1, BaseSeed: 5, Serial: mode.serial}, fig, []float64{0.1, 0.5, 0.9},
				[]string{"none", "swap"}, onOffEnv(4),
				func(x float64, series string) runSpec {
					tech, _ := strategy.ByName(series)
					sc := strategy.Scenario{Active: 2, App: a}
					if x == 0.5 {
						sc.Policy = bad
					}
					return runSpec{tech: tech, sc: sc}
				})
			t.Fatal("sweep returned; the run's panic was lost")
		})
	}
}
