package swaprt

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/obs"
	"repro/internal/swaprt/policylens"
)

// chaosBody is an iterative computation whose numerical result must
// survive any injected fault: every active lane computes sum(0..n-1)
// no matter which hosts end up running it. Each iteration advances the
// fault plan's global iteration clock and sleeps on the world's clock,
// so it takes time — on a virtual clock nothing else does — and
// background recovery probes get to run between swap points.
func chaosBody(n int, plan *fault.Plan, sleep time.Duration, out *sync.Map) func(*Session) error {
	return func(s *Session) error {
		iter := 0
		acc := 0.0
		s.Register("iter", &iter)
		s.Register("acc", &acc)
		for !s.Done() && iter < n {
			if s.Active() {
				acc += float64(iter)
				iter++
				if plan != nil {
					plan.Advance(s.Rank())
				}
				s.tl.Sleep(sleep)
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		if s.Active() {
			out.Store(s.Rank(), acc)
		}
		return nil
	}
}

// TestChaosRunMatchesFaultFree is the headline fault-injection scenario:
// the fastest spare is dead before it can ever receive state, and the
// decision service goes down for a window mid-run. The two-phase commit
// must abort and quarantine the dead spare, the circuit breaker must
// open and then close once the manager recovers, and the run must finish
// with exactly the fault-free result.
func TestChaosRunMatchesFaultFree(t *testing.T) {
	const iters = 15
	want := 0.0
	for i := 0; i < iters; i++ {
		want += float64(i)
	}
	check := func(t *testing.T, out *sync.Map) {
		t.Helper()
		got := 0
		out.Range(func(rank, acc any) bool {
			got++
			if acc.(float64) != want {
				t.Errorf("rank %v finished with acc %v, want %g", rank, acc, want)
			}
			return true
		})
		if got != 2 {
			t.Errorf("%d final active lanes, want 2", got)
		}
	}
	// The chaos run decides through the stack swaprun builds, gated by
	// the plan's manager outage.
	run := func(plan *fault.Plan, tr *obs.Tracer) (RunStats, *sync.Map, error) {
		wcfg := mpi.Config{Size: 4}
		if plan != nil {
			wcfg.Fault = plan
		}
		w, err := mpi.NewWorldWithConfig(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := &rateTable{rates: []float64{100, 100, 5000, 2000}}
		cfg := Config{
			Active:          2,
			Policy:          core.Greedy(),
			Probe:           rt.probe,
			TransferTimeout: 200 * time.Millisecond,
			Tracer:          tr,
		}
		if plan != nil {
			d := NewDecisionStack(w, cfg, nil, nil, plan.ManagerCall)
			defer d.Close()
			cfg.Decider = d
		}
		var out sync.Map
		stats, err := RunWithStats(w, cfg, chaosBody(iters, plan, 2*time.Millisecond, &out))
		return stats, &out, err
	}

	// Baseline: no faults, plain local decisions.
	base, baseOut, err := run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(t, baseOut)
	if base.SwapAborts != 0 || base.Quarantined != 0 {
		t.Fatalf("fault-free run aborted swaps: %+v", base)
	}

	// Chaos: rank 2 (the fastest spare, so the first swap target) is dead
	// from the start; manager calls 2-5 land in an outage window. Two
	// decides of two attempts each fail inside it, which is what opens
	// the circuit.
	plan := fault.MustParse("seed=7;die:rank=2,iter=0;mgrdown:after=1,count=4")
	tr := obs.New(0)
	tr.Enable()
	stats, chaosOut, err := run(plan, tr)
	if err != nil {
		t.Fatalf("chaos run failed instead of degrading: %v", err)
	}
	check(t, chaosOut)

	if stats.SwapAborts < 1 {
		t.Errorf("SwapAborts = %d, want >= 1", stats.SwapAborts)
	}
	if stats.Quarantined < 1 {
		t.Errorf("Quarantined = %d, want >= 1", stats.Quarantined)
	}
	if stats.Swaps < 1 {
		t.Errorf("Swaps = %d, want >= 1 (recovery onto the live spare)", stats.Swaps)
	}

	var quarantine, open, closed bool
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindQuarantine:
			if ev.Peer != 2 {
				t.Errorf("quarantined rank %d, want the dead spare 2", ev.Peer)
			}
			quarantine = true
		case obs.KindCircuit:
			switch ev.Detail {
			case "open":
				open = true
			case "close":
				if !open {
					t.Error("circuit close before open")
				}
				closed = true
			}
		}
	}
	if !quarantine {
		t.Error("no Quarantine event in the trace")
	}
	if !open || !closed {
		t.Errorf("circuit transitions in trace: open=%v close=%v, want both", open, closed)
	}
}

// TestChaosDroppedStateAbortsByTimeout exercises the slow abort path:
// the state payload is silently dropped (not refused), so the outgoing
// rank only learns of the failure when its ack deadline expires — on the
// virtual clock, once no rank can make progress without it. With the
// sole spare quarantined the run must finish on the original set.
func TestChaosDroppedStateAbortsByTimeout(t *testing.T) {
	const iters = 8
	plan := fault.MustParse("drop:dst=2")
	w, err := mpi.NewWorldWithConfig(mpi.Config{Size: 3, Fault: plan, Clock: clock.NewFakeAuto()})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(0)
	tr.Enable()
	rt := &rateTable{rates: []float64{100, 100, 5000}}
	var out sync.Map
	stats, err := RunWithStats(w, Config{
		Active:          2,
		Policy:          core.Greedy(),
		Probe:           rt.probe,
		TransferTimeout: 100 * time.Millisecond,
		Tracer:          tr,
	}, chaosBody(iters, plan, 10*time.Millisecond, &out))
	if err != nil {
		t.Fatalf("run failed instead of aborting the swap: %v", err)
	}
	want := 0.0
	for i := 0; i < iters; i++ {
		want += float64(i)
	}
	for _, rank := range []int{0, 1} {
		v, ok := out.Load(rank)
		if !ok || v.(float64) != want {
			t.Errorf("rank %d acc = %v, want %g on the original set", rank, v, want)
		}
	}
	if stats.Swaps != 0 {
		t.Errorf("Swaps = %d, want 0 (the only spare never received state)", stats.Swaps)
	}
	if stats.SwapAborts < 1 || stats.Quarantined < 1 {
		t.Errorf("aborts/quarantines = %d/%d, want >= 1 each", stats.SwapAborts, stats.Quarantined)
	}
	// Both sides must have logged the abort: the sender's ack timeout and
	// the spare's state-receive timeout.
	bySender, bySpare := false, false
	for _, ev := range tr.Events() {
		if ev.Kind != obs.KindSwapAbort {
			continue
		}
		switch ev.Rank {
		case 2:
			bySpare = true
		default:
			bySender = true
		}
	}
	if !bySender || !bySpare {
		t.Errorf("abort events: sender=%v spare=%v, want both", bySender, bySpare)
	}
}

// TestChaosLensClosesEveryRound is the chaos shape with a lens on the
// decision stack the harnesses build: the manager goes down after its
// first call and stays down, so the swaps — one that aborts on a dead
// spare, one that commits — are proposed by the fallback while the
// circuit is open. Each outcome must still reach the lens that armed the
// prediction: every proposed round ends committed or aborted, and by the
// end of the run nothing is left tracking.
func TestChaosLensClosesEveryRound(t *testing.T) {
	const iters = 15
	plan := fault.MustParse("seed=7;die:rank=2,iter=0;mgrdown:after=1")
	w, err := mpi.NewWorldWithConfig(mpi.Config{Size: 4, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0's host degrades and the dead spare turns fastest after
	// rank 0's fourth swap point: well inside the outage.
	var mu sync.Mutex
	probes := 0
	probe := func(rank int) float64 {
		mu.Lock()
		defer mu.Unlock()
		if rank == 0 {
			probes++
		}
		switch {
		case rank == 0 && probes > 4:
			return 100
		case rank == 2 && probes > 4:
			return 5000
		}
		return 1000
	}
	tr := obs.New(0)
	tr.Enable()
	lens := policylens.New(policylens.Config{})
	cfg := Config{
		Active:          2,
		Policy:          core.Greedy(),
		Probe:           probe,
		TransferTimeout: 200 * time.Millisecond,
		Tracer:          tr,
		Lens:            lens,
	}
	decider := NewDecisionStack(w, cfg, nil, nil, plan.ManagerCall)
	defer decider.Close()
	cfg.Decider = decider
	var out sync.Map
	stats, err := RunWithStats(w, cfg, chaosBody(iters, plan, 0, &out))
	if err != nil {
		t.Fatalf("chaos run failed instead of degrading: %v", err)
	}
	if decider.State() != "open" {
		t.Fatalf("circuit %s at the end, want open: the outage never forced fallback decisions", decider.State())
	}
	if stats.Swaps != 1 || stats.SwapAborts != 1 {
		t.Fatalf("%d swaps committed and %d aborted, want the dead spare's abort and then one commit",
			stats.Swaps, stats.SwapAborts)
	}
	rounds := 0
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindSwapDecision && ev.Swaps > 0 {
			rounds++
		}
	}
	rep := lens.Report()
	if rep.Commits+rep.Aborts != rounds || rep.Tracking != 0 {
		t.Fatalf("lens closed %d commits + %d aborts of %d proposed rounds, %d still tracking; want every round closed and none tracking",
			rep.Commits, rep.Aborts, rounds, rep.Tracking)
	}
	if rep.Commits != 1 || rep.Realized != 1 {
		t.Fatalf("lens: %d commits, %d realized, want the committed swap realized", rep.Commits, rep.Realized)
	}
}
