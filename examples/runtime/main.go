// Runtime: a live demonstration of the swapping runtime (internal/swaprt)
// rather than the simulator. A Jacobi relaxation solver runs on 2 of 4
// over-allocated ranks of the mini-MPI world; halfway through, synthetic
// CPU load lands on one active rank's "host", the swap manager notices
// its probe rate collapse, and the process is swapped to a spare — state
// and all — while the solver keeps converging.
//
// Run with:
//
//	go run ./examples/runtime
package main

import (
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

// loadInjector simulates per-host external load: a loaded host's probe
// rate drops and its compute slows down by the same factor.
type loadInjector struct {
	mu     sync.Mutex
	factor []float64 // slowdown per rank-host, 1 = unloaded
}

func (li *loadInjector) slowdown(rank int) float64 {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.factor[rank]
}

func (li *loadInjector) set(rank int, f float64) {
	li.mu.Lock()
	defer li.mu.Unlock()
	li.factor[rank] = f
}

func (li *loadInjector) probe(rank int) float64 {
	return 1000 / li.slowdown(rank)
}

func main() {
	const (
		worldSize = 4
		active    = 2
		gridSize  = 64
		iters     = 40
	)
	inj := &loadInjector{factor: []float64{1, 1, 1, 1}}

	// Crush rank 1's host shortly after the run starts.
	go func() {
		time.Sleep(300 * time.Millisecond)
		log.Printf("load injector: host of rank 1 is now 8x slower")
		inj.set(1, 8)
	}()

	world := mpi.NewWorld(worldSize)
	cfg := swaprt.Config{
		Active: active,
		Policy: core.Greedy(),
		Probe:  inj.probe,
	}

	var mu sync.Mutex
	var residuals []float64
	err := swaprt.Run(world, cfg, func(s *swaprt.Session) error {
		// Jacobi relaxation on a 1-D rod: each active rank owns half the
		// grid and exchanges boundary values each iteration. Registered
		// state: the local grid slice and the iteration counter.
		iter := 0
		local := make([]float64, gridSize/active+2) // plus ghost cells
		s.Register("iter", &iter)
		s.Register("grid", &local)
		// Fixed boundary conditions on the global rod ends.
		const left, right = 0.0, 100.0

		for !s.Done() && iter < iters {
			if s.Active() {
				comm := s.Comm()
				me, n := comm.Rank(), comm.Size()
				if me == 0 {
					local[0] = left
				}
				if me == n-1 {
					local[len(local)-1] = right
				}
				// Ghost exchange with neighbours.
				if me > 0 {
					if err := comm.Send(me-1, 1, float64Bytes(local[1])); err != nil {
						return err
					}
					b, _, err := comm.Recv(me-1, 1)
					if err != nil {
						return err
					}
					local[0] = bytesFloat64(b)
				}
				if me < n-1 {
					if err := comm.Send(me+1, 1, float64Bytes(local[len(local)-2])); err != nil {
						return err
					}
					b, _, err := comm.Recv(me+1, 1)
					if err != nil {
						return err
					}
					local[len(local)-1] = bytesFloat64(b)
				}
				// One Jacobi sweep, slowed by the injected host load.
				next := make([]float64, len(local))
				copy(next, local)
				diff := 0.0
				for i := 1; i < len(local)-1; i++ {
					next[i] = (local[i-1] + local[i+1]) / 2
					diff += math.Abs(next[i] - local[i])
				}
				copy(local, next)
				busyWait(time.Duration(float64(20*time.Millisecond) * inj.slowdown(s.Rank())))

				res, err := comm.AllReduceFloat64(mpi.OpSum, diff)
				if err != nil {
					return err
				}
				if me == 0 {
					mu.Lock()
					residuals = append(residuals, res)
					mu.Unlock()
					if iter%10 == 0 {
						log.Printf("iter %2d residual %8.3f (rank %d on duty)", iter, res, s.Rank())
					}
				}
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		if s.Active() && s.Comm().Rank() == 0 {
			log.Printf("converged after %d iterations; final residual %.3f; this rank swapped %d times",
				iter, residuals[len(residuals)-1], s.Swaps())
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(residuals) != iters {
		log.Fatalf("expected %d residuals, got %d — iterations lost in the swap?", iters, len(residuals))
	}
	for i := 1; i < len(residuals); i++ {
		if residuals[i] > residuals[i-1]+1e-9 {
			log.Fatalf("residual rose at iteration %d: %g -> %g", i, residuals[i-1], residuals[i])
		}
	}
	fmt.Println("OK: solver converged monotonically across the live process swap")
}

// busyWait spins for the given duration, emulating compute that slows
// under CPU contention (sleep would not).
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

func float64Bytes(v float64) []byte {
	b := make([]byte, 8)
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	return b
}

func bytesFloat64(b []byte) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(u)
}
