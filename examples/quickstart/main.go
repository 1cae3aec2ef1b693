// Quickstart: simulate an iterative MPI application on a shared
// workstation network, first without any adaptation and then with MPI
// process swapping under the greedy policy, and show what each swap
// bought.
//
// Run with:
//
//	go run ./examples/quickstart
package main

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

func main() {
	// A 16-workstation LAN (200-800 MFlop/s hosts, shared 6 MB/s link)
	// under a moderately dynamic ON/OFF load: each host has a competing
	// compute job arriving with probability 0.2 per 30 s step.
	const seed = 7
	buildPlatform := func() *platform.Platform {
		kernel := simkern.New()
		cfg := platform.Default(16, loadgen.NewOnOff(0.2))
		return platform.New(kernel, cfg, rng.NewSource(seed))
	}

	// An iterative application: 4 processes, ~2 minutes of compute per
	// iteration, 1 MB exchanged per iteration, 1 MB of process state.
	application := app.Default(20)
	scenario := strategy.Scenario{
		Active: 4,
		App:    application,
		Policy: core.Greedy(),
	}

	baseline := strategy.None{}.Run(buildPlatform(), scenario)
	swapped := strategy.Swap{}.Run(buildPlatform(), scenario)

	fmt.Printf("application: %s\n", application)
	fmt.Printf("platform:    16 hosts, 4 active + 12 spares, ON/OFF load p=0.2\n\n")
	fmt.Printf("%-28s %10.1f s\n", "do nothing (NONE):", baseline.TotalTime)
	fmt.Printf("%-28s %10.1f s   (%d swaps, %.1f s overhead)\n",
		"process swapping (greedy):", swapped.TotalTime, swapped.Swaps, swapped.Overhead)
	fmt.Printf("%-28s %9.1f%%\n\n", "improvement:",
		100*(1-swapped.TotalTime/baseline.TotalTime))

	fmt.Println("swap events:")
	for _, e := range swapped.Events {
		if e.Kind == strategy.EventSwap {
			fmt.Printf("  t=%8.1f  %s\n", e.T, e.Detail())
		}
	}

	// The payback algebra directly: how many iterations does a swap need
	// to pay for itself on this platform?
	swapTime := core.SwapTime(0.0005, 6e6, application.StateBytes)
	iterTime := baseline.MeanIterTime()
	fmt.Printf("\npayback for a 2x improvement here: %.2f iterations"+
		" (swap %.2f s, iteration %.1f s)\n",
		core.PaybackDistance(swapTime, iterTime, 1, 2), swapTime, iterTime)
}
