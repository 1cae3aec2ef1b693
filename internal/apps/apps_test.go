package apps

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/mpi"
)

func TestNBodyEnergyAndMomentumConservation(t *testing.T) {
	nb := NBody{N: 24, G: 0.001, Dt: 0.01, Softening: 0.1}
	w := mpi.NewWorld(3)
	err := w.Run(func(r *mpi.Rank) error {
		c := r.World()
		st := nb.Init(c.Size(), c.Rank(), 5)
		e0, err := nb.Energy(c, st)
		if err != nil {
			return err
		}
		px0, py0, err := nb.Momentum(c, st)
		if err != nil {
			return err
		}
		for it := 0; it < 200; it++ {
			if err := nb.Step(c, st); err != nil {
				return err
			}
		}
		e1, err := nb.Energy(c, st)
		if err != nil {
			return err
		}
		px1, py1, err := nb.Momentum(c, st)
		if err != nil {
			return err
		}
		// Leapfrog with softening: energy drift stays small; momentum is
		// conserved to round-off (pairwise-equal forces).
		if math.Abs(e1-e0) > 0.02*math.Abs(e0) {
			return fmt.Errorf("energy drift %g -> %g", e0, e1)
		}
		if math.Abs(px1-px0) > 1e-9 || math.Abs(py1-py0) > 1e-9 {
			return fmt.Errorf("momentum drift (%g,%g) -> (%g,%g)", px0, py0, px1, py1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNBodyParallelMatchesSerial(t *testing.T) {
	nb := NBody{N: 12, G: 0.001, Dt: 0.02, Softening: 0.1}
	const steps = 50

	run := func(ranks int) []float64 {
		var mu sync.Mutex
		final := make([]float64, nb.N)
		w := mpi.NewWorld(ranks)
		err := w.Run(func(r *mpi.Rank) error {
			c := r.World()
			st := nb.Init(c.Size(), c.Rank(), 7)
			for it := 0; it < steps; it++ {
				if err := nb.Step(c, st); err != nil {
					return err
				}
			}
			mu.Lock()
			for i := range st.X {
				final[st.Lo+i] = st.X[i]
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return final
	}

	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("particle %d: serial x=%g vs parallel x=%g", i, serial[i], parallel[i])
		}
	}
}

func TestNBodyInitDeterministicAcrossRanks(t *testing.T) {
	nb := NBody{N: 10, G: 1, Dt: 0.01, Softening: 0.1}
	// Rank 0 of 2 and rank 0 of 5 must agree on particle 0 (same global
	// system regardless of decomposition).
	a := nb.Init(2, 0, 42)
	b := nb.Init(5, 0, 42)
	if a.X[0] != b.X[0] || a.VY[0] != b.VY[0] {
		t.Fatal("global system depends on decomposition")
	}
}

func TestNBodyPartition(t *testing.T) {
	nb := NBody{N: 10}
	total := 0
	for r := 0; r < 4; r++ {
		lo, hi := nb.Partition(r, 4)
		total += hi - lo
	}
	if total != 10 {
		t.Fatalf("partition covers %d of 10", total)
	}
}
