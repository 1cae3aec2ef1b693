package strategy_test

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/strategy"
)

// An iterative application on a 16-workstation LAN (200-800 MFlop/s
// hosts, one shared 6 MB/s link) under ON/OFF load, first left alone
// (NONE) and then with process swapping under the greedy policy: 4 of
// the 16 hosts run the application, the other 12 are spares. Every swap
// moves one rank to a faster spare, and costs so little next to an
// iteration that it pays for itself within a fraction of one.
func ExampleSwap() {
	env := func() *platform.Platform {
		return platform.New(simkern.New(), platform.Default(16, loadgen.NewOnOff(0.2)), rng.NewSource(7))
	}
	application := app.Default(4)
	scenario := strategy.Scenario{Active: 4, App: application, Policy: core.Greedy()}

	none := strategy.None{}.Run(env(), scenario)
	swap := strategy.Swap{}.Run(env(), scenario)
	fmt.Printf("NONE %.1f s, SWAP %.1f s (%d swaps, %.2f s overhead)\n",
		none.TotalTime, swap.TotalTime, swap.Swaps, swap.Overhead)
	for _, e := range swap.Events {
		if e.Kind == strategy.EventSwap {
			fmt.Printf("t=%.1f %s\n", e.T, e.Detail())
		}
	}
	swapTime := core.SwapTime(0.0005, 6e6, application.StateBytes)
	iterTime := none.MeanIterTime()
	fmt.Printf("a 2x faster host pays back in %.4f iterations (swap %.2f s, iteration %.1f s)\n",
		core.PaybackDistance(swapTime, iterTime, 1, 2), swapTime, iterTime)
	// Output:
	// NONE 895.8 s, SWAP 873.5 s (6 swaps, 1.00 s overhead)
	// t=399.5 iter 1: rank 1 host 15 -> 4 (payback 0.00, gain 109%)
	// t=399.5 iter 1: rank 0 host 13 -> 9 (payback 0.00, gain 62%)
	// t=399.5 iter 1: rank 2 host 0 -> 10 (payback 0.01, gain 14%)
	// t=588.7 iter 2: rank 2 host 10 -> 12 (payback 0.00, gain 155%)
	// t=588.7 iter 2: rank 0 host 9 -> 8 (payback 0.00, gain 77%)
	// t=588.7 iter 2: rank 1 host 4 -> 3 (payback 0.00, gain 61%)
	// a 2x faster host pays back in 0.0015 iterations (swap 0.17 s, iteration 221.0 s)
}
