package apps

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

// nbodyUnderRuntime runs the N-body kernel on the swapping runtime with
// the given probe and returns the final global X positions.
func nbodyUnderRuntime(t *testing.T, worldSize, active int, probe func(int) float64) []float64 {
	t.Helper()
	nb := NBody{N: 12, G: 0.001, Dt: 0.02, Softening: 0.1}
	const steps = 30
	var mu sync.Mutex
	final := make([]float64, nb.N)
	world := mpi.NewWorld(worldSize)
	err := swaprt.Run(world, swaprt.Config{
		Active: active,
		Policy: core.Greedy(),
		Probe:  probe,
	}, func(s *swaprt.Session) error {
		iter := 0
		var st *NBodyState
		if s.Rank() < active {
			st = nb.Init(active, s.Rank(), 7)
		} else {
			// Spares initialize an empty shell; a swap-in fills it.
			st = &NBodyState{}
		}
		s.Register("iter", &iter)
		// Field by field: allX and allY are unexported scratch, so &st would
		// travel through gob, which also zeroes them on every swap-in.
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
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		if s.Active() {
			mu.Lock()
			for i := range st.X {
				final[st.Lo+i] = st.X[i]
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return final
}

func TestNBodyTrajectoryIdenticalAcrossLiveSwaps(t *testing.T) {
	// Reference: 2 active ranks, no spares, equal probes — no swaps.
	ref := nbodyUnderRuntime(t, 2, 2, func(int) float64 { return 100 })

	// Same computation with 2 spares and a probe that makes rank 0's
	// host look terrible: the runtime will swap mid-run. Because the
	// registered state is the complete process state, the trajectory
	// must be IDENTICAL bit for bit — any divergence means the swap
	// lost or corrupted state.
	var mu sync.Mutex
	rates := []float64{100, 100, 100, 100}
	calls := 0
	probe := func(rank int) float64 {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls > 8 {
			rates[0] = 10  // crush rank 0's host
			rates[2] = 900 // a fast spare appears
		}
		return rates[rank]
	}
	swapped := nbodyUnderRuntime(t, 4, 2, probe)

	for i := range ref {
		if ref[i] != swapped[i] {
			t.Fatalf("particle %d diverged after live swap: %g vs %g", i, ref[i], swapped[i])
		}
	}
}
