// Package apps provides small, real iterative application kernels for the
// swapping runtime and its examples: a 2-D Jacobi relaxation solver and a
// particle-dynamics (N-body) simulation — the application class the paper
// targets and validates with ("a real-world particle dynamics code for
// which only 4 lines of the original source code were modified").
//
// Each kernel exposes its per-rank state as plain slices so a swaprt
// application can register them for transfer, and a Step method that
// performs one iteration over an mpi.Comm. With a single-member
// communicator the kernels run serially, which the tests use as the
// reference for verifying that swapped runs compute identical results.
package apps

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// Jacobi2D is a 2-D Laplace boundary-value problem on an Nx×Ny interior
// grid with Dirichlet boundaries: Top and Bottom along y, and a linear
// profile between them on the left/right walls, so the steady-state
// solution is exactly linear in y (independent of x) — which gives the
// tests an analytic answer. Rows are block-partitioned across ranks with
// one ghost row exchanged per neighbour per sweep, the canonical
// structure of the iterative codes the paper retrofits.
type Jacobi2D struct {
	Nx, Ny      int // interior grid size (columns, rows)
	Top, Bottom float64
}

// Jacobi2DState is one rank's row block, including one ghost row above
// and below. Rows are stored flattened: Grid[(r)*(Nx+2) + c] with a halo
// column on each side fixed to the wall profile.
type Jacobi2DState struct {
	Grid []float64
	// LoRow is the global index (1-based over interior rows) of the
	// block's first interior row.
	LoRow int
	Rows  int // interior rows in this block
}

// rowRange returns rank r's interior row range [lo, hi), 1-based.
func (j Jacobi2D) rowRange(r, n int) (lo, hi int) {
	per := j.Ny / n
	rem := j.Ny % n
	lo = r*per + min(r, rem)
	hi = lo + per
	if r < rem {
		hi++
	}
	return lo + 1, hi + 1
}

// Exact reports the analytic steady state at global interior row gy
// (1-based): linear between Top (row 0) and Bottom (row Ny+1).
func (j Jacobi2D) Exact(gy int) float64 {
	frac := float64(gy) / float64(j.Ny+1)
	return j.Top + (j.Bottom-j.Top)*frac
}

// Init builds rank r's block with boundary columns pre-filled.
func (j Jacobi2D) Init(commSize, rank int) *Jacobi2DState {
	if j.Ny < commSize {
		panic(fmt.Sprintf("apps: Jacobi2D with %d rows on %d ranks", j.Ny, commSize))
	}
	lo, hi := j.rowRange(rank, commSize)
	rows := hi - lo
	st := &Jacobi2DState{
		Grid:  make([]float64, (rows+2)*(j.Nx+2)),
		LoRow: lo,
		Rows:  rows,
	}
	// Side walls carry the exact linear profile so the solution is
	// exactly linear in y.
	for rr := 0; rr < rows+2; rr++ {
		gy := lo + rr - 1 // global row of this stored row
		v := j.Exact(gy)
		st.Grid[rr*(j.Nx+2)] = v
		st.Grid[rr*(j.Nx+2)+j.Nx+1] = v
	}
	return st
}

// Step performs one sweep: ghost-row exchange then relaxation. Tags 102
// and 103 are used on the communicator. It returns this rank's absolute
// change.
func (j Jacobi2D) Step(comm *mpi.Comm, st *Jacobi2DState) (float64, error) {
	me, n := comm.Rank(), comm.Size()
	w := j.Nx + 2
	rowSlice := func(r int) []float64 { return st.Grid[r*w : (r+1)*w] }

	// Physical top/bottom boundaries.
	if me == 0 {
		top := rowSlice(0)
		for c := range top {
			top[c] = j.Top
		}
	}
	if me == n-1 {
		bot := rowSlice(st.Rows + 1)
		for c := range bot {
			bot[c] = j.Bottom
		}
	}
	// Ghost exchange.
	if me > 0 {
		if err := comm.SendFloat64s(me-1, 102, rowSlice(1)); err != nil {
			return 0, err
		}
	}
	if me < n-1 {
		if err := comm.SendFloat64s(me+1, 103, rowSlice(st.Rows)); err != nil {
			return 0, err
		}
		v, _, err := comm.RecvFloat64s(me+1, 102)
		if err != nil {
			return 0, err
		}
		copy(rowSlice(st.Rows+1), v)
	}
	if me > 0 {
		v, _, err := comm.RecvFloat64s(me-1, 103)
		if err != nil {
			return 0, err
		}
		copy(rowSlice(0), v)
	}

	next := make([]float64, len(st.Grid))
	copy(next, st.Grid)
	diff := 0.0
	for r := 1; r <= st.Rows; r++ {
		for c := 1; c <= j.Nx; c++ {
			i := r*w + c
			v := (st.Grid[i-1] + st.Grid[i+1] + st.Grid[i-w] + st.Grid[i+w]) / 4
			diff += math.Abs(v - st.Grid[i])
			next[i] = v
		}
	}
	copy(st.Grid, next)
	return diff, nil
}

// MaxError reports the largest interior deviation from the exact
// solution.
func (j Jacobi2D) MaxError(st *Jacobi2DState) float64 {
	w := j.Nx + 2
	worst := 0.0
	for r := 1; r <= st.Rows; r++ {
		gy := st.LoRow + r - 1
		want := j.Exact(gy)
		for c := 1; c <= j.Nx; c++ {
			if e := math.Abs(st.Grid[r*w+c] - want); e > worst {
				worst = e
			}
		}
	}
	return worst
}
