package experiment

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/nws"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/strategy"
)

// The ablation sweeps isolate each design choice the paper's policy space
// exposes (DESIGN.md Section 8). All use the Figure 4 workload at a fixed
// moderate dynamism where the policy knobs matter most.

const (
	ablationLoadP  = 0.2
	ablationHosts  = 32
	ablationActive = 4
)

// ablationEnv is the one environment the knob sweeps share: x turns a
// policy knob, not the load.
func ablationEnv(float64) platform.Config {
	return platform.Default(ablationHosts, loadgen.NewOnOff(ablationLoadP))
}

func ablationSpec(o Options, state float64, pol core.Policy) runSpec {
	return runSpec{
		tech: strategy.Swap{},
		sc: strategy.Scenario{
			Active: ablationActive,
			App:    fig4App(o, state),
			Policy: pol,
		},
	}
}

// AblationHistory sweeps the history-window length from instantaneous to
// ten minutes on an otherwise-greedy policy, for small and large process
// state. History is the paper's "swap frequency damping" knob: with a
// cheap swap, damping mostly delays good moves; with an expensive swap it
// prevents thrashing.
func AblationHistory(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "ablation-history",
		Title:  fmt.Sprintf("History window ablation (greedy gates, p=%g)", ablationLoadP),
		XLabel: "history_window_s",
		YLabel: "execution time (s)",
	}
	grid := []float64{0, 30, 60, 120, 300, 600}
	if o.Quick {
		grid = []float64{0, 300}
	}
	sweep(o, fig, grid, []string{"state-1MB", "state-100MB"}, ablationEnv,
		func(x float64, series string) runSpec {
			state := 1e6
			if series == "state-100MB" {
				state = 100e6
			}
			pol := core.Greedy()
			pol.Name = fmt.Sprintf("greedy+hist%g", x)
			pol.HistoryWindow = x
			return ablationSpec(o, state, pol)
		})
	return fig
}

// AblationPayback sweeps the payback threshold from very strict (0.1
// iterations) to unlimited with a 100 MB state, tracing the safe-to-greedy
// risk spectrum on a single knob.
func AblationPayback(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "ablation-payback",
		Title:  fmt.Sprintf("Payback threshold ablation (100MB state, p=%g)", ablationLoadP),
		XLabel: "payback_threshold_iters",
		YLabel: "execution time (s)",
	}
	grid := []float64{0.1, 0.25, 0.5, 1, 2, 5, math.Inf(1)}
	if o.Quick {
		grid = []float64{0.5, math.Inf(1)}
	}
	sweep(o, fig, grid, []string{"swap"}, ablationEnv,
		func(x float64, series string) runSpec {
			pol := core.Greedy()
			pol.Name = fmt.Sprintf("payback<=%g", x)
			pol.PaybackThreshold = x
			return ablationSpec(o, 100e6, pol)
		})
	return fig
}

// AblationImprovement sweeps the minimum process-improvement threshold
// (the "stiction" knob) from 0 to 50%.
func AblationImprovement(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "ablation-improvement",
		Title:  fmt.Sprintf("Minimum process improvement ablation (100MB state, p=%g)", ablationLoadP),
		XLabel: "min_improvement_frac",
		YLabel: "execution time (s)",
	}
	grid := []float64{0, 0.05, 0.1, 0.2, 0.35, 0.5}
	if o.Quick {
		grid = []float64{0, 0.2}
	}
	sweep(o, fig, grid, []string{"swap"}, ablationEnv,
		func(x float64, series string) runSpec {
			pol := core.Greedy()
			pol.Name = fmt.Sprintf("improve>%g", x)
			pol.MinProcImprovement = x
			return ablationSpec(o, 100e6, pol)
		})
	return fig
}

// AblationSelector compares the paper's slowest-active-for-fastest-spare
// pairing against random beneficial pairing under identical policy gates,
// across dynamism.
func AblationSelector(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "ablation-selector",
		Title:  "Swap pair-selection rule: slowest-fastest (paper) vs random-beneficial",
		XLabel: "load_probability",
		YLabel: "execution time (s)",
	}
	sweep(o, fig, dynamismGrid(o.Quick), []string{"slowest-fastest", "random"},
		onOffEnv(ablationHosts),
		func(_ float64, series string) runSpec {
			spec := ablationSpec(o, 1e6, core.Greedy())
			if series == "random" {
				spec.sc.SwapSelection = "random"
				spec.sc.SelectSeed = o.BaseSeed
			}
			return spec
		})
	return fig
}

// AblationForecaster compares rate estimators feeding the safe policy: the
// idealized exact monitor against realistic periodic sampling summarized
// by different NWS forecasters.
func AblationForecaster(o Options) *FigureResult {
	o = o.fill()
	fig := &FigureResult{
		ID:     "ablation-forecaster",
		Title:  fmt.Sprintf("Rate estimator ablation (safe policy, p=%g)", ablationLoadP),
		XLabel: "probe_interval_s",
		YLabel: "execution time (s)",
	}
	grid := []float64{5, 15, 30, 60}
	if o.Quick {
		grid = []float64{15}
	}
	mk := func(f func() nws.Forecaster, interval float64) predict.RateEstimator {
		return predict.SampledEstimator{Interval: interval, NewForecaster: f}
	}
	sweep(o, fig, grid, []string{"exact", "last", "mean", "median", "adaptive"}, ablationEnv,
		func(x float64, series string) runSpec {
			spec := ablationSpec(o, 1e6, core.Safe())
			switch series {
			case "exact":
				spec.sc.Estimator = predict.ExactEstimator{}
			case "last":
				spec.sc.Estimator = mk(func() nws.Forecaster { return &nws.LastValue{} }, x)
			case "mean":
				spec.sc.Estimator = mk(func() nws.Forecaster { return &nws.RunningMean{} }, x)
			case "median":
				spec.sc.Estimator = mk(func() nws.Forecaster { return &nws.SlidingMedian{K: 10} }, x)
			case "adaptive":
				spec.sc.Estimator = mk(func() nws.Forecaster { return nws.NewAdaptive() }, x)
			}
			return spec
		})
	return fig
}

// Ablations returns every ablation generator keyed by ID.
func Ablations() map[string]func(Options) *FigureResult {
	return map[string]func(Options) *FigureResult{
		"ablation-history":     AblationHistory,
		"ablation-payback":     AblationPayback,
		"ablation-improvement": AblationImprovement,
		"ablation-selector":    AblationSelector,
		"ablation-forecaster":  AblationForecaster,
	}
}

// AblationIDs returns the ablation IDs in order.
func AblationIDs() []string {
	return []string{
		"ablation-history", "ablation-payback", "ablation-improvement",
		"ablation-selector", "ablation-forecaster",
	}
}
