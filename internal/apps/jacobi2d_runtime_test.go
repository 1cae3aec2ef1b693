package apps

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

// runJacobi2DWithSwap drives the 2-D kernel under the swapping runtime
// with a mid-run performance flip that forces a swap, then asserts the
// solution error bound.
func runJacobi2DWithSwap(t *testing.T, j Jacobi2D, iters int, tol float64) {
	t.Helper()
	const active = 2
	var mu sync.Mutex
	rates := []float64{100, 100, 100}
	probeCalls := 0
	probe := func(rank int) float64 {
		mu.Lock()
		defer mu.Unlock()
		probeCalls++
		if probeCalls > 10 {
			rates[0] = 10
			rates[2] = 900
		}
		return rates[rank]
	}
	var maxErr float64 = -1
	swapsSeen := 0
	world := mpi.NewWorld(3)
	err := swaprt.Run(world, swaprt.Config{
		Active: active,
		Policy: core.Greedy(),
		Probe:  probe,
	}, func(s *swaprt.Session) error {
		iter := 0
		var st *Jacobi2DState
		if s.Rank() < active {
			st = j.Init(active, s.Rank())
		} else {
			st = &Jacobi2DState{}
		}
		s.Register("iter", &iter)
		s.Register("st", st) // every field exported and raw: bound field by field, no gob
		for !s.Done() && iter < iters {
			if s.Active() {
				if _, err := j.Step(s.Comm(), st); err != nil {
					return err
				}
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		swapsSeen += s.Swaps()
		if s.Active() {
			if e := j.MaxError(st); e > maxErr {
				maxErr = e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if swapsSeen == 0 {
		t.Fatal("no swap occurred; test exercises nothing")
	}
	if maxErr < 0 || maxErr > tol {
		t.Fatalf("solution error after swapped run: %g (tol %g)", maxErr, tol)
	}
}
