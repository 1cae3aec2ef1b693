package repro

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/strategy"
	"repro/internal/swaprt"
)

// Benchmarks of the live-runtime stack.

// BenchmarkLiveSwapRoundTrip measures a complete forced swap: decision,
// state transfer of ~64 KiB, and communicator rebuild, by running a
// 2-rank world that swaps on every iteration (rates flip each probe).
func BenchmarkLiveSwapRoundTrip(b *testing.B) {
	var mu sync.Mutex
	flip := false
	probe := func(rank int) float64 {
		mu.Lock()
		defer mu.Unlock()
		if (rank == 0) == flip {
			return 100
		}
		return 1000
	}
	world := mpi.NewWorld(2)
	b.ResetTimer()
	err := swaprt.Run(world, swaprt.Config{
		Active: 1,
		Policy: core.Greedy(),
		Probe:  probe,
	}, func(s *swaprt.Session) error {
		iter := 0
		// Seeded, not zero: an all-zero slice ships as its length and the
		// benchmark would stop measuring a transfer.
		state := make([]byte, 64<<10)
		rand.New(rand.NewSource(20030623)).Read(state)
		s.Register("iter", &iter)
		s.Register("state", &state)
		for !s.Done() && iter < b.N {
			if s.Active() {
				mu.Lock()
				flip = !flip // make the other host look better
				mu.Unlock()
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkGanttRender(b *testing.B) {
	res := strategy.Result{Strategy: "swap", Swaps: 10}
	for i := 0; i < 100; i++ {
		res.Iters = append(res.Iters, strategy.IterRecord{Hosts: []int{i % 8, (i + 3) % 8, (i + 5) % 8}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strategy.Gantt(res)
	}
}
