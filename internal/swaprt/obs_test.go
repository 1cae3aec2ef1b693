package swaprt

import (
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// TestRunStatsPopulatedOnBodyError pins the documented contract that the
// returned stats are valid even when the body errors out: swap points
// executed before the failure stay counted.
func TestRunStatsPopulatedOnBodyError(t *testing.T) {
	w := mpi.NewWorld(2)
	boom := errors.New("boom")
	rs, err := RunWithStats(w, Config{
		Active: 2,
		Policy: core.Greedy(),
		Probe:  func(int) float64 { return 100 },
	}, func(s *Session) error {
		for i := 0; i < 3; i++ {
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if rs.SwapPoints != 6 {
		t.Fatalf("SwapPoints = %d, want 6", rs.SwapPoints)
	}
	if rs.Decisions != 3 {
		t.Fatalf("Decisions = %d, want 3", rs.Decisions)
	}
	if rs.DecideTime <= 0 {
		t.Fatalf("DecideTime = %v, want > 0", rs.DecideTime)
	}
	if total := rs.MPI.Total(); total.MsgsSent == 0 {
		t.Fatal("MPI stats empty on error path")
	}
}

// TestTracedRunEmitsDecisionAndTransfers drives a run that swaps and
// asserts the full event taxonomy lands: a SwapDecision carrying the
// payback distance and a "swap" verdict, StateTransfer out/in legs with
// matching byte counts, a ManagerAssign, and iteration brackets.
func TestTracedRunEmitsDecisionAndTransfers(t *testing.T) {
	w, clk := fakeWorld(t, 3)
	rt := &rateTable{rates: []float64{100, 100, 1000}} // rank 2 is a fast spare
	tr := obs.New(3, obs.WithClock(clock.Seconds(clk)))
	tr.Enable()
	rs, err := RunWithStats(w, Config{
		Active: 2,
		Policy: core.Greedy(),
		Probe:  rt.probe,
		Tracer: tr,
	}, iterBody(10, clk, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Swaps == 0 {
		t.Fatal("run did not swap; trace assertions are vacuous")
	}

	var decisions, assigns, iterStarts, iterEnds int
	var swapVerdict *obs.Event
	var outLeg, inLeg *obs.Event
	for _, ev := range tr.Events() {
		ev := ev
		switch ev.Kind {
		case obs.KindSwapDecision:
			decisions++
			if ev.Verdict == "swap" && swapVerdict == nil {
				swapVerdict = &ev
			}
		case obs.KindManagerAssign:
			assigns++
		case obs.KindStateTransfer:
			if ev.Detail == "out" {
				outLeg = &ev
			} else if ev.Detail == "in" {
				inLeg = &ev
			}
		case obs.KindIterStart:
			iterStarts++
		case obs.KindIterEnd:
			iterEnds++
		}
	}
	if decisions != rs.Decisions {
		t.Fatalf("decision events = %d, RunStats.Decisions = %d", decisions, rs.Decisions)
	}
	if swapVerdict == nil {
		t.Fatal("no SwapDecision event with verdict swap")
	}
	if swapVerdict.Payback <= 0 || swapVerdict.Reason == "" {
		t.Fatalf("swap decision lacks payback/reason: %+v", swapVerdict)
	}
	if swapVerdict.OldPerf != 100 || swapVerdict.NewPerf != 1000 {
		t.Fatalf("decisive pair = %g/%g, want 100/1000", swapVerdict.OldPerf, swapVerdict.NewPerf)
	}
	if swapVerdict.IterTime <= 0 || swapVerdict.SwapTime <= 0 {
		t.Fatalf("algebra inputs missing: %+v", swapVerdict)
	}
	if assigns == 0 {
		t.Fatal("no ManagerAssign event")
	}
	if outLeg == nil || inLeg == nil {
		t.Fatalf("state transfer legs missing: out=%v in=%v", outLeg, inLeg)
	}
	if outLeg.Bytes != inLeg.Bytes || outLeg.Bytes != rs.StateBytes {
		t.Fatalf("transfer bytes out=%d in=%d stats=%d", outLeg.Bytes, inLeg.Bytes, rs.StateBytes)
	}
	if iterStarts == 0 || iterEnds == 0 {
		t.Fatalf("iteration brackets missing: %d starts, %d ends", iterStarts, iterEnds)
	}

	// The registry carries the same counters the stats snapshot reported.
	snap := w.Metrics().Snapshot()
	if int(snap["swaprt.swaps"]) != rs.Swaps {
		t.Fatalf("registry swaps %v vs stats %d", snap["swaprt.swaps"], rs.Swaps)
	}
}
