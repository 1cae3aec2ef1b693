package swaprt_test

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

// The swap manager's decision core: measurements in, swap directives out.
// Host 12 (a spare) is predicted much faster than host 3 (the slowest
// active), so the greedy policy orders the swap.
func ExampleLocalDecider_Decide() {
	d := swaprt.NewLocalDecider(core.Greedy())
	resp, err := d.Decide(swaprt.DecideRequest{
		Now:         60,
		ActiveSet:   []int{3, 5},
		ActiveRates: []float64{120e6, 480e6},
		SpareSet:    []int{12, 14},
		SpareRates:  []float64{700e6, 90e6},
		IterTime:    130,
		SwapTime:    0.17,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, s := range resp.Swaps {
		fmt.Printf("swap out rank on host %d, swap in host %d\n", s.Out, s.In)
	}
	// Output:
	// swap out rank on host 3, swap in host 12
}

// The paper's checkpoint/restart technique on the live runtime: a
// 2-rank run sums an allreduce of the iteration number, checkpoints every
// rank's registered state to a store at iteration 25 and stops at 30, as
// if its hosts failed. A fresh world restores iteration 25 from the store
// and finishes all 40 iterations with the sums an uninterrupted run has:
// unlike swapping, checkpoint/restart does not tie an application to
// the processors it started on. The store here is in-process; cmd/ckptstore
// serves the same one standalone.
func ExampleSession_CheckpointTo() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer ln.Close()
	go swaprt.NewStoreServer(nil).Serve(ln)
	store := swaprt.StoreClient{Addr: ln.Addr().String()}

	// run computes from iteration 0, or from the stored state with
	// restore, until iteration until, and returns each rank's sum.
	const ranks, ckptAt = 2, 25
	run := func(restore bool, until int) ([ranks]float64, error) {
		var mu sync.Mutex
		var sums [ranks]float64
		err := swaprt.Run(mpi.NewWorld(ranks), swaprt.Config{
			Active: ranks, Policy: core.Safe(), Probe: func(int) float64 { return 100 },
		}, func(s *swaprt.Session) error {
			iter, sum := 0, 0.0
			s.Register("iter", &iter)
			s.Register("sum", &sum)
			key := fmt.Sprintf("demo/rank%d", s.Comm().Rank())
			if restore {
				if err := s.RestoreFrom(store, key); err != nil {
					return err
				}
			}
			for !s.Done() && iter < until {
				v, err := s.Comm().AllReduceFloat64(mpi.OpSum, float64(iter))
				if err != nil {
					return err
				}
				sum += v
				iter++
				if !restore && iter == ckptAt {
					if err := s.CheckpointTo(store, key); err != nil {
						return err
					}
				}
				if err := s.SwapPoint(); err != nil {
					return err
				}
			}
			mu.Lock()
			sums[s.Comm().Rank()] = sum
			mu.Unlock()
			return nil
		})
		return sums, err
	}

	if _, err := run(false, 30); err != nil {
		fmt.Println(err)
		return
	}
	sums, err := run(true, 40)
	if err != nil {
		fmt.Println(err)
		return
	}
	for rank, sum := range sums {
		fmt.Printf("rank %d: sum %.0f\n", rank, sum)
	}
	// Iteration i adds i from each rank, so an uninterrupted run's sum is
	// 2 * (0 + 1 + ... + 39) = 1560.

	// Output:
	// rank 0: sum 1560
	// rank 1: sum 1560
}
