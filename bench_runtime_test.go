package repro

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/strategy"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

// Benchmarks of the live-runtime stack and the application kernels.

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

// BenchmarkStateCodec measures the registered-state codec alone, through
// the checkpoint calls: one SaveCheckpoint and one LoadCheckpoint of a
// seeded []float64 (a zero-filled one would ship as a count) per
// iteration, at the swap benchmark's two state sizes. 4KiB+struct is the
// shape bench/ registers (an int, a four-field struct, the grid): the
// struct is bound field by field at Register, so it allocates nothing
// (cmd/benchagg gates that).
func BenchmarkStateCodec(b *testing.B) {
	for _, size := range []struct {
		name     string
		bytes    int
		withMeta bool
	}{{"4KiB", 4 << 10, false}, {"4KiB+struct", 4 << 10, true}, {"1MiB", 1 << 20, false}} {
		b.Run(size.name, func(b *testing.B) {
			grid := make([]float64, size.bytes/8)
			rng := rand.New(rand.NewSource(20030623))
			for i := range grid {
				grid[i] = rng.NormFloat64()
			}
			iter := 1
			meta := struct {
				Seed, Step int64
				Pos        int32
				Label      string
			}{20030623, 1, 1, "swap-small"}
			err := swaprt.Run(mpi.NewWorld(1), swaprt.Config{
				Active: 1,
				Probe:  func(int) float64 { return 1 },
			}, func(s *swaprt.Session) error {
				s.Register("iter", &iter)
				s.Register("grid", &grid)
				if size.withMeta {
					s.Register("meta", &meta)
				}
				var blob bytes.Buffer
				b.SetBytes(int64(size.bytes))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					blob.Reset()
					if err := s.SaveCheckpoint(&blob); err != nil {
						return err
					}
					if err := s.LoadCheckpoint(&blob); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkLocalDeciderDecide measures one decision of the live swap
// manager's leaf under the safe policy (a 300 s history window) for a
// 2+1 world, with the swap points spaced so that each rank's window
// holds the named number of samples throughout: the cost of a decision
// must not depend on how much history it looks back over (cmd/benchagg
// gates history=20k within 2x of history=256).
func BenchmarkLocalDeciderDecide(b *testing.B) {
	for _, size := range []struct {
		name    string
		samples int
	}{{"history=256", 256}, {"history=20k", 20000}} {
		b.Run(size.name, func(b *testing.B) {
			pol := core.Safe()
			d := swaprt.NewLocalDecider(pol)
			req := swaprt.DecideRequest{
				ActiveSet: []int{0, 1}, ActiveRates: []float64{1000, 1001},
				SpareSet: []int{2}, SpareRates: []float64{1002},
				IterTime: 300e-6, SwapTime: 0.0005,
			}
			step := pol.HistoryWindow / float64(size.samples)
			decide := func() {
				req.Now += step
				if _, err := d.Decide(req); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < size.samples; i++ {
				decide()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decide()
			}
		})
	}
}

// BenchmarkLensObserveDecision measures the policy lens auditing one
// boundary of the figures' shape — 4 active and 28 spare candidates in
// arrival order, replayed by the three shadow policies — with no tracer
// attached.
func BenchmarkLensObserveDecision(b *testing.B) {
	in := core.DecideInput{IterTime: 120, SwapTime: 0.17}
	st := rng.NewSource(2).Stream("lens")
	for i := 0; i < 4; i++ {
		in.Active = append(in.Active, core.Candidate{ID: i, Rate: st.Uniform(100, 800)})
	}
	for i := 0; i < 28; i++ {
		in.Spare = append(in.Spare, core.Candidate{ID: 4 + i, Rate: st.Uniform(100, 800)})
	}
	pairs, eval := core.Safe().DecideExplained(in)
	lens := policylens.New(policylens.Config{})
	dec := policylens.Decision{Input: in, Eval: &eval, Swaps: len(pairs)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.T = float64(i)
		lens.ObserveDecision(dec)
	}
}

func BenchmarkNBodyStep(b *testing.B) {
	nb := apps.NBody{N: 256, G: 0.001, Dt: 0.01, Softening: 0.1}
	w := mpi.NewWorld(4)
	b.ResetTimer()
	err := w.Run(func(r *mpi.Rank) error {
		c := r.World()
		st := nb.Init(c.Size(), c.Rank(), 1)
		for i := 0; i < b.N; i++ {
			if err := nb.Step(c, st); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkJacobiStep(b *testing.B) {
	j := apps.Jacobi1D{N: 4096, Left: 0, Right: 1}
	w := mpi.NewWorld(4)
	b.ResetTimer()
	err := w.Run(func(r *mpi.Rank) error {
		c := r.World()
		st := j.Init(c.Size(), c.Rank())
		for i := 0; i < b.N; i++ {
			if _, err := j.Step(c, st); err != nil {
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
