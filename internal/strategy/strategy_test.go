package strategy

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
)

// testPlatform builds a fresh deterministic platform for one run.
func testPlatform(hosts int, model loadgen.Model, seed int64) *platform.Platform {
	k := simkern.New()
	cfg := platform.Default(hosts, model)
	return platform.New(k, cfg, rng.NewSource(seed))
}

func TestNoneOnIdlePlatform(t *testing.T) {
	p := testPlatform(4, loadgen.Constant{N: 0}, 1)
	a := app.Iterative{Iterations: 3, WorkPerProcIter: 100e6, BytesPerIter: 0, StateBytes: 1e6}
	res := None{}.Run(p, Scenario{Active: 2, App: a})

	if res.StartupTime != 3 { // 4 hosts * 0.75 s
		t.Fatalf("startup = %g", res.StartupTime)
	}
	if len(res.Iters) != 3 {
		t.Fatalf("iterations recorded = %d", len(res.Iters))
	}
	// Iteration time = chunk / slowest-chosen-host speed; the two chosen
	// hosts are the two fastest of four.
	ids := p.FastestAt(0, 2, nil)
	slow := p.Hosts[ids[1]].Speed
	wantIter := 100e6 / slow
	for _, it := range res.Iters {
		if math.Abs(it.Time()-wantIter) > 1e-9 {
			t.Fatalf("iteration time %g, want %g", it.Time(), wantIter)
		}
	}
	want := res.StartupTime + 3*wantIter
	if math.Abs(res.TotalTime-want) > 1e-9 {
		t.Fatalf("TotalTime = %g, want %g", res.TotalTime, want)
	}
	if res.Swaps != 0 || res.Overhead != 0 {
		t.Fatalf("none has swaps/overhead: %+v", res)
	}
}

func TestNoneIgnoresStateSize(t *testing.T) {
	for _, state := range []float64{1e3, 1e9} {
		p := testPlatform(8, loadgen.NewOnOff(0.3), 7)
		a := app.Default(5).WithState(state)
		res := None{}.Run(p, Scenario{Active: 4, App: a})
		p2 := testPlatform(8, loadgen.NewOnOff(0.3), 7)
		base := None{}.Run(p2, Scenario{Active: 4, App: a.WithState(1e6)})
		if res.TotalTime != base.TotalTime {
			t.Fatalf("none depends on state size: %g vs %g", res.TotalTime, base.TotalTime)
		}
	}
}

func TestCommunicationLengthensIterations(t *testing.T) {
	a := app.Iterative{Iterations: 2, WorkPerProcIter: 100e6, BytesPerIter: 0}
	p1 := testPlatform(4, loadgen.Constant{N: 0}, 3)
	dry := None{}.Run(p1, Scenario{Active: 4, App: a})

	a.BytesPerIter = 6e6 // 4 concurrent 6 MB transfers on a 6 MB/s link
	p2 := testPlatform(4, loadgen.Constant{N: 0}, 3)
	wet := None{}.Run(p2, Scenario{Active: 4, App: a})

	if wet.TotalTime <= dry.TotalTime {
		t.Fatalf("communication free? dry=%g wet=%g", dry.TotalTime, wet.TotalTime)
	}
	// All four transfers start nearly together (hosts differ slightly in
	// speed) and fair-share the 6 MB/s link: the communication phase
	// costs about 4 s per iteration.
	delta := wet.TotalTime - dry.TotalTime
	if delta < 6 || delta > 10 {
		t.Fatalf("comm cost over 2 iterations = %g, want ≈8", delta)
	}
}

func TestSwapWithNoSparesEqualsNone(t *testing.T) {
	a := app.Default(5)
	p1 := testPlatform(4, loadgen.NewOnOff(0.4), 11)
	p2 := testPlatform(4, loadgen.NewOnOff(0.4), 11)
	sNone := None{}.Run(p1, Scenario{Active: 4, App: a})
	sSwap := Swap{}.Run(p2, Scenario{Active: 4, App: a, Policy: core.Greedy()})
	if sSwap.Swaps != 0 {
		t.Fatalf("swap found spares on a fully active platform: %d", sSwap.Swaps)
	}
	if math.Abs(sSwap.TotalTime-sNone.TotalTime) > 1e-9 {
		t.Fatalf("swap != none with no spares: %g vs %g", sSwap.TotalTime, sNone.TotalTime)
	}
}

// loadedFirstHost loads one specific host from t=100 on (slowdown factor
// 1+tail), leaving the rest idle.
type loadedFirstHost struct {
	victim int
	tail   int
}

func (m loadedFirstHost) Describe() string { return "loadedFirstHost" }
func (m loadedFirstHost) NewSource(src *rng.Source, host int) loadgen.Source {
	if host == m.victim {
		tail := m.tail
		if tail == 0 {
			tail = 9 // default: 10x slowdown forever after t=100
		}
		return loadgen.Replay{
			Segments: []loadgen.Segment{{Dur: 100, N: 0}},
			Tail:     tail,
		}.NewSource(src, host)
	}
	return loadgen.Constant{N: 0}.NewSource(src, host)
}

func TestSwapEscapesLoadedHost(t *testing.T) {
	// 3 hosts, 1 active. The initially-fastest host gets crushed at
	// t=100; swapping must move the process and beat doing nothing.
	seed := int64(21)
	k := simkern.New()
	p := platform.New(k, platform.Default(3, nil), rng.NewSource(seed))
	victim := p.FastestAt(0, 1, nil)[0]

	build := func() *platform.Platform {
		k := simkern.New()
		cfg := platform.Default(3, loadedFirstHost{victim: victim})
		return platform.New(k, cfg, rng.NewSource(seed))
	}
	a := app.Iterative{Iterations: 10, WorkPerProcIter: 60 * 500e6, BytesPerIter: 1e3, StateBytes: 1e6}
	sc := Scenario{Active: 1, App: a, Policy: core.Greedy()}

	rNone := None{}.Run(build(), sc)
	rSwap := Swap{}.Run(build(), sc)

	if rSwap.Swaps == 0 {
		t.Fatal("swap never swapped off the crushed host")
	}
	if rSwap.TotalTime >= rNone.TotalTime {
		t.Fatalf("swap (%g) did not beat none (%g)", rSwap.TotalTime, rNone.TotalTime)
	}
	// After the swap the process must no longer be on the victim.
	if rSwap.FinalHosts[0] == victim {
		t.Fatal("process still on the loaded host")
	}
}

func TestSafeRefusesWhenSwapCostsMoreThanHalfIteration(t *testing.T) {
	// A 1 GB state takes ~167 s to move. With only a 2x slowdown on the
	// victim, the degraded iteration time stays a few hundred seconds,
	// so the payback distance (>= 2 * swapTime/iterTime for a 2x gain)
	// exceeds safe's 0.5-iteration threshold: safe must hold still while
	// greedy swaps anyway.
	seed := int64(22)
	k := simkern.New()
	p0 := platform.New(k, platform.Default(3, nil), rng.NewSource(seed))
	victim := p0.FastestAt(0, 1, nil)[0]
	build := func() *platform.Platform {
		k := simkern.New()
		return platform.New(k, platform.Default(3, loadedFirstHost{victim: victim, tail: 1}), rng.NewSource(seed))
	}
	a := app.Iterative{Iterations: 8, WorkPerProcIter: 60 * 500e6, BytesPerIter: 1e3, StateBytes: 1e9}
	safe := Swap{}.Run(build(), Scenario{Active: 1, App: a, Policy: core.Safe()})
	if safe.Swaps != 0 {
		t.Fatalf("safe swapped %d times with payback above threshold", safe.Swaps)
	}
	greedy := Swap{}.Run(build(), Scenario{Active: 1, App: a, Policy: core.Greedy()})
	if greedy.Swaps == 0 {
		t.Fatal("greedy should have swapped regardless of cost")
	}
}

func TestDLBBalancesHeterogeneousHosts(t *testing.T) {
	// Static heterogeneous platform: DLB's balanced partition makes all
	// ranks finish together and beats the equal partition.
	a := app.Iterative{Iterations: 4, WorkPerProcIter: 120 * 500e6, BytesPerIter: 0}
	p1 := testPlatform(4, loadgen.Constant{N: 0}, 31)
	rNone := None{}.Run(p1, Scenario{Active: 4, App: a})
	p2 := testPlatform(4, loadgen.Constant{N: 0}, 31)
	rDLB := DLB{}.Run(p2, Scenario{Active: 4, App: a})

	if rDLB.TotalTime >= rNone.TotalTime {
		t.Fatalf("dlb (%g) did not beat none (%g) on heterogeneous hosts",
			rDLB.TotalTime, rNone.TotalTime)
	}
	// Perfect balance on a static platform: iteration time equals
	// total work / total speed.
	var sum float64
	for _, h := range p2.Hosts {
		sum += h.Speed
	}
	wantIter := a.TotalWorkPerIter(4) / sum
	for _, it := range rDLB.Iters {
		if math.Abs(it.Time()-wantIter) > 1e-6 {
			t.Fatalf("dlb iteration %g, want %g", it.Time(), wantIter)
		}
	}
}

func TestCRRelocatesWhenBetterSetAppears(t *testing.T) {
	seed := int64(23)
	k := simkern.New()
	p0 := platform.New(k, platform.Default(3, nil), rng.NewSource(seed))
	victim := p0.FastestAt(0, 1, nil)[0]
	build := func() *platform.Platform {
		k := simkern.New()
		return platform.New(k, platform.Default(3, loadedFirstHost{victim: victim}), rng.NewSource(seed))
	}
	a := app.Iterative{Iterations: 10, WorkPerProcIter: 60 * 500e6, BytesPerIter: 1e3, StateBytes: 1e6}
	sc := Scenario{Active: 1, App: a, Policy: core.Greedy()}
	rCR := CR{}.Run(build(), sc)
	rNone := None{}.Run(build(), sc)
	if rCR.Swaps == 0 {
		t.Fatal("cr never relocated")
	}
	if rCR.TotalTime >= rNone.TotalTime {
		t.Fatalf("cr (%g) did not beat none (%g)", rCR.TotalTime, rNone.TotalTime)
	}
	// CR pays startup again on every restart.
	if rCR.Overhead <= p0.StartupTime(1) {
		t.Fatalf("cr overhead %g suspiciously small", rCR.Overhead)
	}
}

func TestCROverheadExceedsSwapOverhead(t *testing.T) {
	// For the same relocation need, CR writes+reads all state and pays a
	// restart, so its per-event overhead must exceed Swap's.
	seed := int64(24)
	k := simkern.New()
	p0 := platform.New(k, platform.Default(4, nil), rng.NewSource(seed))
	victim := p0.FastestAt(0, 1, nil)[0]
	build := func() *platform.Platform {
		k := simkern.New()
		return platform.New(k, platform.Default(4, loadedFirstHost{victim: victim}), rng.NewSource(seed))
	}
	a := app.Iterative{Iterations: 10, WorkPerProcIter: 60 * 500e6, BytesPerIter: 1e3, StateBytes: 50e6}
	sc := Scenario{Active: 1, App: a, Policy: core.Greedy()}
	rSwap := Swap{}.Run(build(), sc)
	rCR := CR{}.Run(build(), sc)
	if rSwap.Swaps == 0 || rCR.Swaps == 0 {
		t.Fatalf("expected both to act: swap=%d cr=%d", rSwap.Swaps, rCR.Swaps)
	}
	perSwap := rSwap.Overhead / float64(rSwap.Swaps)
	perCR := rCR.Overhead / float64(rCR.Swaps)
	if perCR <= perSwap {
		t.Fatalf("per-event overhead: cr=%g should exceed swap=%g", perCR, perSwap)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	for _, tech := range []Technique{None{}, Swap{}, DLB{}, CR{}} {
		a := app.Default(6)
		r1 := tech.Run(testPlatform(8, loadgen.NewOnOff(0.3), 99), Scenario{Active: 4, App: a})
		r2 := tech.Run(testPlatform(8, loadgen.NewOnOff(0.3), 99), Scenario{Active: 4, App: a})
		if r1.TotalTime != r2.TotalTime || r1.Swaps != r2.Swaps {
			t.Fatalf("%s not deterministic: %g/%d vs %g/%d",
				tech.Name(), r1.TotalTime, r1.Swaps, r2.TotalTime, r2.Swaps)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "swap", "dlb", "cr"} {
		tech, err := ByName(name)
		if err != nil || tech.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, tech, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should error")
	}
}

func TestIterRecordsAreContiguous(t *testing.T) {
	p := testPlatform(8, loadgen.NewOnOff(0.4), 5)
	res := Swap{}.Run(p, Scenario{Active: 4, App: app.Default(8), Policy: core.Greedy()})
	prevEnd := res.StartupTime
	for i, it := range res.Iters {
		if it.Index != i {
			t.Fatalf("record %d has index %d", i, it.Index)
		}
		if math.Abs(it.Start-prevEnd) > 1e-9 {
			t.Fatalf("iteration %d starts at %g, previous ended at %g", i, it.Start, prevEnd)
		}
		if it.End < it.ComputeDone-1e-9 || it.ComputeDone < it.Start {
			t.Fatalf("iteration %d times out of order: %+v", i, it)
		}
		if len(it.Hosts) != 4 {
			t.Fatalf("iteration %d host list %v", i, it.Hosts)
		}
		prevEnd = it.End + it.Overhead
	}
	if math.Abs(res.TotalTime-prevEnd) > 1e-9 {
		t.Fatalf("TotalTime %g != last boundary %g", res.TotalTime, prevEnd)
	}
}

func TestMeanIterTime(t *testing.T) {
	r := Result{Iters: []IterRecord{
		{Start: 0, End: 10}, {Start: 10, End: 30},
	}}
	if got := r.MeanIterTime(); got != 15 {
		t.Fatalf("MeanIterTime = %g", got)
	}
	if (Result{}).MeanIterTime() != 0 {
		t.Fatal("empty MeanIterTime != 0")
	}
}

// runNoneMultiProc reimplements the None technique with one simulated
// process per MPI rank synchronizing on a barrier, to cross-validate the
// analytic driver against a literal process-per-rank simulation.
func runNoneMultiProc(p *platform.Platform, sc Scenario) float64 {
	k := p.Kernel
	endTime := 0.0
	k.Go("coord", func(c *simkern.Proc) {
		c.Sleep(p.StartupTime(len(p.Hosts)))
		hosts := p.FastestAt(c.Now(), sc.Active, nil)
		bar := simkern.NewBarrier(k, sc.Active)
		done := simkern.NewBarrier(k, sc.Active+1)
		for r := 0; r < sc.Active; r++ {
			host := p.Hosts[hosts[r]]
			k.Go("rank", func(proc *simkern.Proc) {
				for it := 0; it < sc.App.Iterations; it++ {
					proc.Sleep(host.ComputeDuration(proc.Now(), sc.App.WorkPerProcIter))
					if sc.App.BytesPerIter > 0 {
						p.Link.Transfer(proc, sc.App.BytesPerIter)
					}
					bar.Wait(proc)
				}
				done.Wait(proc)
			})
		}
		done.Wait(c)
		endTime = c.Now()
	})
	k.Run()
	return endTime
}

func TestNoneMatchesMultiProcessSimulation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		a := app.Iterative{Iterations: 5, WorkPerProcIter: 120 * 500e6, BytesPerIter: 2e6}
		sc := Scenario{Active: 4, App: a}
		analytic := None{}.Run(testPlatform(8, loadgen.NewOnOff(0.4), seed), sc)
		multi := runNoneMultiProc(testPlatform(8, loadgen.NewOnOff(0.4), seed), sc)
		if math.Abs(analytic.TotalTime-multi) > 1e-6*analytic.TotalTime {
			t.Fatalf("seed %d: analytic %g vs multiproc %g", seed, analytic.TotalTime, multi)
		}
	}
}

func TestRandomSelectionStillBeneficialAndDeterministic(t *testing.T) {
	a := app.Default(10)
	sc := Scenario{Active: 4, App: a, Policy: core.Greedy(),
		SwapSelection: "random", SelectSeed: 3}
	r1 := Swap{}.Run(testPlatform(16, loadgen.NewOnOff(0.2), 42), sc)
	r2 := Swap{}.Run(testPlatform(16, loadgen.NewOnOff(0.2), 42), sc)
	if r1.TotalTime != r2.TotalTime || r1.Swaps != r2.Swaps {
		t.Fatalf("random selection not reproducible: %g/%d vs %g/%d",
			r1.TotalTime, r1.Swaps, r2.TotalTime, r2.Swaps)
	}
	if r1.Swaps == 0 {
		t.Fatal("random selector never swapped in a dynamic environment")
	}
	// Every accepted random swap still cleared the gates: the run must
	// not be wildly worse than doing nothing.
	rNone := None{}.Run(testPlatform(16, loadgen.NewOnOff(0.2), 42), Scenario{Active: 4, App: a})
	if r1.TotalTime > rNone.TotalTime*1.5 {
		t.Fatalf("random selection catastrophically bad: %g vs none %g",
			r1.TotalTime, rNone.TotalTime)
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{}
	if sc.policy().Name != "greedy" {
		t.Fatalf("default policy = %q", sc.policy().Name)
	}
	if sc.estimator() == nil {
		t.Fatal("default estimator nil")
	}
}

func TestRunPanicsOnBadScenario(t *testing.T) {
	p := testPlatform(2, loadgen.Constant{N: 0}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Active > hosts")
		}
	}()
	None{}.Run(p, Scenario{Active: 5, App: app.Default(1)})
}

// A boundary that never calls done leaves the run with nothing scheduled:
// the queue drains mid-run, and the run says which technique stalled and
// in which iteration instead of returning a truncated Result.
func TestBoundaryThatNeverEndsPanics(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "run stuck stalled in iteration 2") {
			t.Fatalf("panic %q does not name the technique and iteration", msg)
		}
	}()
	p := testPlatform(4, loadgen.Constant{N: 0}, 1)
	run(p, Scenario{Active: 2, App: app.Default(5)}, "stuck", equalChunks,
		func(d *driver, iter int, iterTime float64, done func()) {
			if iter < 2 {
				done()
			}
		})
	t.Fatal("a run whose boundary never ended returned")
}
