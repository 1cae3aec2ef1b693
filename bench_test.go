// Package repro's benchmark harness: one testing.B benchmark per paper
// figure (reduced sweep sizes — run cmd/swapexp for the full series), the
// ablation sweeps from DESIGN.md, and micro-benchmarks of the substrates
// the simulation is built on. Each figure benchmark reports a headline
// shape metric alongside wall time, so `go test -bench=.` doubles as a
// compact reproduction report.
package repro

import (
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/loadgen"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/strategy"
)

// benchOptions keeps figure benchmarks fast but non-trivial.
func benchOptions() experiment.Options {
	return experiment.Options{Seeds: 3, Iterations: 15, BaseSeed: 20030623, Quick: true}
}

// ratio reports series a's best advantage over series b across the sweep
// (min over x of a/b), the "who wins by what factor" shape metric.
func ratio(fig *experiment.FigureResult, a, b string) float64 {
	best := 1.0
	for i := range fig.X {
		r := fig.Get(a, i).Mean / fig.Get(b, i).Mean
		if r < best {
			best = r
		}
	}
	return best
}

func BenchmarkFig1Payback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.Fig1(benchOptions())
		if len(fig.X) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.ReportMetric(2.0, "payback_iters")
}

func BenchmarkFig2OnOffTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig2(benchOptions())
	}
}

func BenchmarkFig3HyperExpTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig3(benchOptions())
	}
}

func BenchmarkFig4Techniques(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig4(benchOptions())
	}
	b.ReportMetric(ratio(fig, "swap", "none"), "swap/none_best")
	b.ReportMetric(ratio(fig, "dlb", "none"), "dlb/none_best")
	b.ReportMetric(ratio(fig, "cr", "none"), "cr/none_best")
}

// What a figure cell pays before its first event, beside the figure: a
// named stream seeded and read for the dozen values a host's load source
// draws in a quick sweep (the median; EXPERIMENTS.md "Simulator ledger"),
// and the 32-host ON/OFF environment of Fig. 4 — 33 such streams — built
// new, and rebuilt in place as a sweep worker does for each (x,
// repetition) cell it takes.
func BenchmarkStreamSeedDraw12(b *testing.B) {
	src := rng.NewSource(20030623)
	var sink float64
	for i := 0; i < b.N; i++ {
		st := src.Stream("host-17")
		for d := 0; d < 12; d++ {
			sink += st.Float64()
		}
	}
	_ = sink
}

func BenchmarkNewEnvironment32(b *testing.B) {
	cfg := platform.Default(32, loadgen.NewOnOff(0.2))
	for i := 0; i < b.N; i++ {
		platform.NewEnvironment(cfg, rng.NewSource(int64(i)))
	}
}

func BenchmarkRebuildEnvironment32(b *testing.B) {
	cfg := platform.Default(32, loadgen.NewOnOff(0.2))
	e := platform.NewEnvironment(cfg, rng.NewSource(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Rebuild(cfg, rng.NewSource(int64(i)))
	}
}

// One run of each technique on the Fig. 4 scenario (4 active of 32 hosts,
// ON/OFF p = 0.2, 1 MB state, 15 iterations), without the environment
// build: the environment is built once, and every op binds it to a fresh
// kernel as a sweep cell does for each of its series (bench/'s
// strategy.*_run_us builds it every time).
func BenchmarkTechniqueRun(b *testing.B) {
	a := app.Iterative{Iterations: 15, WorkPerProcIter: 120 * app.RefSpeed, BytesPerIter: 1e6, StateBytes: 1e6}
	sc := strategy.Scenario{Active: 4, App: a, Policy: core.Greedy()}
	for _, name := range []string{"none", "swap", "dlb", "cr"} {
		b.Run(name, func(b *testing.B) {
			tech, err := strategy.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			e := platform.NewEnvironment(platform.Default(32, loadgen.NewOnOff(0.2)), rng.NewSource(20030623))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := tech.Run(e.Bind(simkern.New()), sc); res.TotalTime <= 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

func BenchmarkFig5OverAllocation(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig5(benchOptions())
	}
	last := len(fig.X) - 1
	b.ReportMetric(fig.Get("swap", last).Mean/fig.Get("swap", 0).Mean, "swap_300pct/0pct")
}

func BenchmarkFig6ProcessSize(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig6(benchOptions())
	}
	b.ReportMetric(ratio(fig, "swap-1MB", "none"), "swap1MB/none_best")
	// For 1GB the interesting number is how harmful it gets (max ratio).
	worst := 1.0
	for i := range fig.X {
		if r := fig.Get("swap-1GB", i).Mean / fig.Get("none", i).Mean; r > worst {
			worst = r
		}
	}
	b.ReportMetric(worst, "swap1GB/none_worst")
}

func BenchmarkFig7Policies(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig7(benchOptions())
	}
	b.ReportMetric(ratio(fig, "greedy", "none"), "greedy/none_best")
	b.ReportMetric(ratio(fig, "safe", "none"), "safe/none_best")
	b.ReportMetric(ratio(fig, "friendly", "none"), "friendly/none_best")
}

func BenchmarkFig8PoliciesLargeState(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig8(benchOptions())
	}
	last := len(fig.X) - 1
	b.ReportMetric(fig.Get("greedy", last).Mean/fig.Get("none", last).Mean, "greedy/none_chaotic")
	b.ReportMetric(fig.Get("safe", last).Mean/fig.Get("none", last).Mean, "safe/none_chaotic")
}

func BenchmarkFig9HyperExp(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig9(benchOptions())
	}
	b.ReportMetric(ratio(fig, "swap", "none"), "swap/none_best")
}

// Ablation benchmarks (DESIGN.md Section 8).

func BenchmarkAblationHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationHistory(benchOptions())
	}
}

func BenchmarkAblationPayback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationPayback(benchOptions())
	}
}

func BenchmarkAblationImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationImprovement(benchOptions())
	}
}

func BenchmarkAblationSelector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationSelector(benchOptions())
	}
}

func BenchmarkAblationForecaster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationForecaster(benchOptions())
	}
}

// Substrate micro-benchmarks. The per-layer costs the benchmark harness
// reports (`go run ./bench`: kernel events, process switches, link
// sharing, host compute, load traces, state codec, deciders, lens, TCP
// ping-pong) are measured there only; these are the shapes it does not
// take.

// BenchmarkPolicyDecide is the safe policy's decision on an 8+24
// boundary without its Reason sentence; bench/'s core.decide_wide_ns is
// the same boundary explained.
func BenchmarkPolicyDecide(b *testing.B) {
	var active, spare []core.Candidate
	st := rng.NewSource(2).Stream("bench")
	for i := 0; i < 8; i++ {
		active = append(active, core.Candidate{ID: i, Rate: st.Uniform(100, 800)})
	}
	for i := 0; i < 24; i++ {
		spare = append(spare, core.Candidate{ID: 100 + i, Rate: st.Uniform(100, 800)})
	}
	in := core.DecideInput{Active: active, Spare: spare, IterTime: 120, SwapTime: 0.17}
	pol := core.Safe()
	for i := 0; i < b.N; i++ {
		pol.Decide(in)
	}
}

func BenchmarkPaybackDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.PaybackDistance(10, 120, 1, 2.5)
	}
}

// BenchmarkMPIPingPong is a 1 KiB ping-pong on the in-process
// transport; bench/'s mpi.pingpong_small_us is the TCP one.
func BenchmarkMPIPingPong(b *testing.B) {
	w := mpi.NewWorld(2)
	payload := make([]byte, 1024)
	b.ResetTimer()
	err := w.Run(func(r *mpi.Rank) error {
		c := r.World()
		for i := 0; i < b.N; i++ {
			if r.Rank() == 0 {
				if err := c.Send(1, 0, payload); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, 0); err != nil {
					return err
				}
			} else {
				if _, _, err := c.Recv(0, 0); err != nil {
					return err
				}
				if err := c.Send(0, 0, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMPIAllReduce8(b *testing.B) {
	w := mpi.NewWorld(8)
	b.ResetTimer()
	err := w.Run(func(r *mpi.Rank) error {
		c := r.World()
		for i := 0; i < b.N; i++ {
			if _, err := c.AllReduceFloat64(mpi.OpSum, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
