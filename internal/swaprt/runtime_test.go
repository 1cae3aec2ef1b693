package swaprt

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
)

// iterStep is what one iteration of iterBody takes on a fakeWorld.
const iterStep = 50 * time.Millisecond

// fakeWorld builds an in-process world of n ranks on a manual clock.Fake:
// the run's time moves only when a body advances it, so the iteration
// time the decider sees is exact. Nothing advances the clock while a
// swap is in flight — a transfer that would time out hangs instead, so
// tests of the abort paths stay on the wall clock.
func fakeWorld(t *testing.T, n int) (*mpi.World, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake()
	w, err := mpi.NewWorldWithConfig(mpi.Config{Size: n, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	return w, clk
}

// rateTable is a mutable per-rank probe for tests.
type rateTable struct {
	mu    sync.Mutex
	rates []float64
}

func (rt *rateTable) probe(rank int) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.rates[rank]
}

func (rt *rateTable) set(rank int, v float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.rates[rank] = v
}

// iterBody returns the canonical swaprt application body: n iterations
// incrementing a registered counter and accumulating a registered sum via
// an allreduce on the active communicator. With a fake clock the active
// leader advances it by iterStep per iteration, before the allreduce, so
// no member reaches the swap point ahead of the step. record receives
// each rank's final session for assertions.
func iterBody(n int, clk *clock.Fake, record func(s *Session, iter int, sum float64)) func(*Session) error {
	return func(s *Session) error {
		iter := 0
		sum := 0.0
		s.Register("iter", &iter)
		s.Register("sum", &sum)
		for !s.Done() && iter < n {
			if s.Active() {
				if clk != nil && s.Comm().Rank() == 0 {
					clk.Advance(iterStep)
				}
				v, err := s.Comm().AllReduceFloat64(mpi.OpSum, 1)
				if err != nil {
					return err
				}
				sum += v
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		if record != nil {
			record(s, iter, sum)
		}
		return nil
	}
}

func TestRunNoSwapsCompletes(t *testing.T) {
	w, clk := fakeWorld(t, 4)
	var finals sync.Map
	err := Run(w, Config{
		Active: 2,
		Policy: core.Greedy(),
		Probe:  func(int) float64 { return 100 }, // all equal: never swap
	}, iterBody(10, clk, func(s *Session, iter int, sum float64) {
		finals.Store(s.Rank(), [2]float64{float64(iter), sum})
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Active ranks 0,1 completed 10 iterations, each allreduce = 2.
	for _, rank := range []int{0, 1} {
		v, ok := finals.Load(rank)
		if !ok {
			t.Fatalf("rank %d did not record", rank)
		}
		got := v.([2]float64)
		if got[0] != 10 || got[1] != 20 {
			t.Fatalf("rank %d finished iter=%g sum=%g", rank, got[0], got[1])
		}
	}
	// Spares never computed.
	for _, rank := range []int{2, 3} {
		v, _ := finals.Load(rank)
		got := v.([2]float64)
		if got[0] != 0 || got[1] != 0 {
			t.Fatalf("spare %d computed: %v", rank, got)
		}
	}
}

func TestSwapMovesComputationAndState(t *testing.T) {
	w, clk := fakeWorld(t, 3)
	rt := &rateTable{rates: []float64{100, 100, 1000}} // rank 2 is a fast spare
	var finals sync.Map
	var swapped atomic.Int32
	err := Run(w, Config{
		Active: 2,
		Policy: core.Greedy(),
		Probe:  rt.probe,
	}, iterBody(20, clk, func(s *Session, iter int, sum float64) {
		finals.Store(s.Rank(), [3]float64{float64(iter), sum, float64(s.Swaps())})
		if s.Swaps() > 0 {
			swapped.Add(1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if swapped.Load() < 2 {
		t.Fatalf("expected an out and an in participant, got %d", swapped.Load())
	}
	// Rank 2 must have been swapped in and finished the computation with
	// fully restored state: its final iter is 20 and sum is 40.
	v, ok := finals.Load(2)
	if !ok {
		t.Fatal("rank 2 missing")
	}
	got := v.([3]float64)
	if got[0] != 20 || got[1] != 40 {
		t.Fatalf("swapped-in rank finished iter=%g sum=%g (state transfer broken?)", got[0], got[1])
	}
}

func TestSwappedOutRankParksAndFinishes(t *testing.T) {
	w, clk := fakeWorld(t, 2)
	rt := &rateTable{rates: []float64{100, 500}}
	var finals sync.Map
	err := Run(w, Config{
		Active: 1,
		Policy: core.Greedy(),
		Probe:  rt.probe,
	}, iterBody(15, clk, func(s *Session, iter int, sum float64) {
		finals.Store(s.Rank(), s.Active())
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 (slow) must end inactive, rank 1 active.
	if v, _ := finals.Load(0); v.(bool) {
		t.Fatal("slow rank still active")
	}
	if v, _ := finals.Load(1); !v.(bool) {
		t.Fatal("fast rank not active")
	}
}

func TestSafePolicyHoldsStillForSmallGain(t *testing.T) {
	w, clk := fakeWorld(t, 2)
	// 10% spare advantage: below safe's 20% threshold.
	rt := &rateTable{rates: []float64{100, 110}}
	var sw atomic.Int32
	err := Run(w, Config{
		Active: 1,
		Policy: core.Safe(),
		Probe:  rt.probe,
	}, iterBody(10, clk, func(s *Session, iter int, sum float64) {
		sw.Add(int32(s.Swaps()))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Load() != 0 {
		t.Fatalf("safe policy swapped %d times for a 10%% gain", sw.Load())
	}
}

func TestRepeatedSwapsFollowTheFastestHost(t *testing.T) {
	// The fast host moves over time; the computation must chase it
	// through multiple swaps, preserving state each time.
	w, clk := fakeWorld(t, 3)
	rt := &rateTable{rates: []float64{1000, 100, 100}}
	var step atomic.Int32
	probe := func(rank int) float64 {
		// After a few iterations, make rank 1 fastest; later rank 2.
		s := step.Load()
		switch {
		case s < 8:
			return rt.probe(rank)
		case s < 16:
			if rank == 1 {
				return 2000
			}
			return rt.probe(rank)
		default:
			if rank == 2 {
				return 5000
			}
			if rank == 1 {
				return 2000
			}
			return rt.probe(rank)
		}
	}
	var finals sync.Map
	err := Run(w, Config{
		Active: 1,
		Policy: core.Greedy(),
		Probe: func(rank int) float64 {
			step.Add(1)
			return probe(rank)
		},
	}, iterBody(30, clk, func(s *Session, iter int, sum float64) {
		finals.Store(s.Rank(), [2]float64{float64(iter), sum})
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Whoever ends active must hold the complete state.
	total := 0.0
	for _, rank := range []int{0, 1, 2} {
		v, _ := finals.Load(rank)
		got := v.([2]float64)
		if got[0] == 30 {
			total = got[1]
		}
	}
	if total != 30 { // active set size 1 → each allreduce adds 1
		t.Fatalf("final sum %g, want 30 (state lost across repeated swaps?)", total)
	}
}

func TestMultiRankSwapKeepsCollectivesWorking(t *testing.T) {
	// 4 active of 6; two spares much faster: a double swap. The
	// remaining actives and the swapped-in ranks must agree on the new
	// communicator.
	w, clk := fakeWorld(t, 6)
	rt := &rateTable{rates: []float64{100, 100, 300, 300, 900, 900}}
	var finals sync.Map
	err := Run(w, Config{
		Active: 4,
		Policy: core.Greedy(),
		Probe:  rt.probe,
	}, iterBody(12, clk, func(s *Session, iter int, sum float64) {
		if s.Active() {
			finals.Store(s.Rank(), sum)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	finals.Range(func(k, v any) bool {
		count++
		if v.(float64) != 48 { // 12 iterations × allreduce of 4 ones
			t.Errorf("rank %v final sum %v, want 48", k, v)
		}
		return true
	})
	if count != 4 {
		t.Fatalf("%d active ranks at completion, want 4", count)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	w := mpi.NewWorld(1)
	err := Run(w, Config{Active: 1, Probe: func(int) float64 { return 1 }},
		func(s *Session) error {
			x := 0
			s.Register("x", &x)
			defer func() {
				if recover() == nil {
					t.Error("duplicate Register did not panic")
				}
			}()
			s.Register("x", &x)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommPanicsWhenInactive(t *testing.T) {
	w := mpi.NewWorld(2)
	err := Run(w, Config{Active: 1, Probe: func(int) float64 { return 1 }},
		func(s *Session) error {
			if s.Rank() == 1 {
				defer func() {
					if recover() == nil {
						t.Error("Comm on spare did not panic")
					}
				}()
				s.Comm()
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBodyErrorReleasesSpares(t *testing.T) {
	w := mpi.NewWorld(3)
	err := Run(w, Config{Active: 1, Probe: func(int) float64 { return 1 }},
		func(s *Session) error {
			if s.Active() {
				return fmt.Errorf("app exploded")
			}
			// Spares park; they must be released when the active errors.
			return s.SwapPoint()
		})
	if err == nil {
		t.Fatal("expected the application error to propagate")
	}
}

func TestStateSetRoundTrip(t *testing.T) {
	a := newStateSet()
	x := []float64{1, 2, 3}
	n := 42
	m := map[string]int{"k": 7}
	a.register("x", &x)
	a.register("n", &n)
	a.register("m", &m)
	blob, err := a.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}

	b := newStateSet()
	var x2 []float64
	var n2 int
	var m2 map[string]int
	b.register("x", &x2)
	b.register("n", &n2)
	b.register("m", &m2)
	if err := b.decode(blob); err != nil {
		t.Fatal(err)
	}
	if n2 != 42 || len(x2) != 3 || x2[2] != 3 || m2["k"] != 7 {
		t.Fatalf("decoded x=%v n=%d m=%v", x2, n2, m2)
	}
}

func TestStateSetMismatchedNames(t *testing.T) {
	a := newStateSet()
	x := 1
	a.register("x", &x)
	blob, _ := a.appendTo(nil)

	b := newStateSet()
	y := 1
	b.register("y", &y)
	if err := b.decode(blob); err == nil {
		t.Fatal("mismatched registration decoded successfully")
	}
}

func TestLocalDeciderHistorySmoothing(t *testing.T) {
	// With safe's 5-minute window, a single instantaneous spike in a
	// spare's rate must not trigger a swap, but a sustained improvement
	// must.
	d := NewLocalDecider(core.Safe())
	req := DecideRequest{
		ActiveSet:   []int{0},
		ActiveRates: []float64{100},
		SpareSet:    []int{1},
		SpareRates:  []float64{100},
		IterTime:    60,
		SwapTime:    1,
	}
	// Build history: spare equal to active for a while.
	for i := 0; i < 10; i++ {
		req.Now = float64(i) * 10
		if resp, err := d.Decide(req); err != nil || len(resp.Swaps) != 0 {
			t.Fatalf("warmup decided %v, %v", resp, err)
		}
	}
	// One transient 30% spike: the 5-minute window mean stays near 100,
	// under safe's 20% process-improvement bar.
	req.Now = 110
	req.SpareRates = []float64{130}
	resp, err := d.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Swaps) != 0 {
		t.Fatal("safe decider swapped on a single spike despite history")
	}
	// Sustained improvement: window mean eventually clears the 20% bar.
	for i := 0; i < 40; i++ {
		req.Now = 120 + float64(i)*10
		resp, err = d.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Swaps) > 0 {
			return // swapped once the history agreed
		}
	}
	t.Fatal("safe decider never swapped on a sustained improvement")
}

func TestLocalDeciderRejectsMismatchedVectors(t *testing.T) {
	d := NewLocalDecider(core.Greedy())
	_, err := d.Decide(DecideRequest{ActiveSet: []int{0}, ActiveRates: nil, IterTime: 1})
	if err == nil {
		t.Fatal("no error for mismatched vectors")
	}
}

func TestRemoteDeciderAgainstServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = ServeManager(ln, NewLocalDecider(core.Greedy()), nil) }()

	d := RemoteDecider{Addr: ln.Addr().String()}
	resp, err := d.Decide(DecideRequest{
		Now:         1,
		ActiveSet:   []int{0},
		ActiveRates: []float64{100},
		SpareSet:    []int{1},
		SpareRates:  []float64{500},
		IterTime:    60,
		SwapTime:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Swaps) != 1 || resp.Swaps[0] != (SwapDirective{Out: 0, In: 1}) {
		t.Fatalf("remote decision = %+v", resp)
	}
}

func TestRunWithRemoteDecider(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = ServeManager(ln, NewLocalDecider(core.Greedy()), nil) }()

	w, clk := fakeWorld(t, 2)
	rt := &rateTable{rates: []float64{100, 800}}
	var finals sync.Map
	err = Run(w, Config{
		Active:  1,
		Decider: RemoteDecider{Addr: ln.Addr().String()},
		Probe:   rt.probe,
	}, iterBody(8, clk, func(s *Session, iter int, sum float64) {
		finals.Store(s.Rank(), float64(iter))
	}))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := finals.Load(1)
	if v.(float64) != 8 {
		t.Fatalf("remote-managed swap did not complete: rank 1 iter=%v", v)
	}
}

func TestDefaultProbePositive(t *testing.T) {
	r := DefaultProbe()
	if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatalf("DefaultProbe = %g", r)
	}
}

func TestManagerValidatesDirectives(t *testing.T) {
	bogus := &scriptDecider{resp: DecideResponse{Swaps: []SwapDirective{{Out: 5, In: 0}}}}
	m := newManager(2, Config{Probe: func(int) float64 { return 1 }}.fill(), bogus)
	_, err := m.decide(0, 1, []int{0}, []float64{1}, 2, 10, 1)
	if err == nil {
		t.Fatal("invalid directive accepted")
	}
}
