// Nbody: the paper's validation-application class — particle dynamics —
// running live on the swapping runtime. A 64-particle gravitational
// system integrates on 2 of 5 ranks; midway, one active host is crushed
// by synthetic load and the safe policy relocates the process. The demo
// verifies the physics across the swap: total momentum is conserved to
// round-off and the trajectory matches a swap-free reference run exactly.
//
// Run with:
//
//	go run ./examples/nbody
package main

import (
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

const (
	particles = 64
	active    = 2
	steps     = 60
)

// busyWait spins for d, emulating compute that slows under CPU
// contention.
func busyWait(d time.Duration) {
	end := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-12
		}
	}
	_ = x
}

func run(worldSize int, probe func(int) float64, slowdown func(int) float64) ([]float64, float64, float64) {
	nb := apps.NBody{N: particles, G: 0.002, Dt: 0.01, Softening: 0.1}
	var mu sync.Mutex
	finalX := make([]float64, particles)
	var px, py float64
	world := mpi.NewWorld(worldSize)
	err := swaprt.Run(world, swaprt.Config{
		Active: active,
		Policy: core.Safe(),
		Probe:  probe,
	}, func(s *swaprt.Session) error {
		iter := 0
		var st *apps.NBodyState
		if s.Rank() < active {
			st = nb.Init(active, s.Rank(), 2003)
		} else {
			st = &apps.NBodyState{}
		}
		s.Register("iter", &iter)
		s.Register("lo", &st.Lo)
		s.Register("x", &st.X)
		s.Register("y", &st.Y)
		s.Register("vx", &st.VX)
		s.Register("vy", &st.VY)
		for !s.Done() && iter < steps {
			if s.Active() {
				if err := nb.Step(s.Comm(), st); err != nil {
					return err
				}
				// Emulate a heavier force computation, slowed by any
				// injected load on this rank's host.
				busyWait(time.Duration(5*slowdown(s.Rank())) * time.Millisecond)
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		if s.Active() {
			p, q, err := nb.Momentum(s.Comm(), st)
			if err != nil {
				return err
			}
			mu.Lock()
			for i := range st.X {
				finalX[st.Lo+i] = st.X[i]
			}
			px, py = p, q
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return finalX, px, py
}

func main() {
	// Reference: no spares, equal probes — no swaps possible.
	noSlow := func(int) float64 { return 1 }
	refX, refPx, refPy := run(active, func(int) float64 { return 100 }, noSlow)

	// Live run: 3 spares; rank 0's host collapses shortly after start.
	var mu sync.Mutex
	rates := []float64{100, 100, 100, 100, 100}
	go func() {
		time.Sleep(80 * time.Millisecond)
		mu.Lock()
		rates[0] = 5    // crushed
		rates[3] = 1000 // attractive spare
		mu.Unlock()
		log.Printf("load injector: rank 0's host crushed, rank 3's host idle")
	}()
	probe := func(rank int) float64 {
		mu.Lock()
		defer mu.Unlock()
		return rates[rank]
	}
	slowdown := func(rank int) float64 {
		mu.Lock()
		defer mu.Unlock()
		return 100 / rates[rank]
	}
	liveX, livePx, livePy := run(5, probe, slowdown)

	diverged := 0
	for i := range refX {
		if refX[i] != liveX[i] {
			diverged++
		}
	}
	fmt.Printf("\n%d particles, %d steps, %d active ranks of 5\n", particles, steps, active)
	fmt.Printf("momentum (reference): (%.2e, %.2e)\n", refPx, refPy)
	fmt.Printf("momentum (with swap): (%.2e, %.2e)\n", livePx, livePy)
	fmt.Printf("momentum drift:        %.2e\n",
		math.Hypot(livePx-refPx, livePy-refPy))
	if diverged == 0 {
		fmt.Println("trajectory check: IDENTICAL across the live process swap")
	} else {
		fmt.Printf("trajectory check: %d particles diverged — state lost!\n", diverged)
	}
}
