package swaprt

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/obs"
)

// plannedRounds proposes, at the given decision numbers, each directive
// whose Out is still active and whose In is still offered, and stays
// otherwise.
type plannedRounds struct {
	StayDecider
	at map[int][]SwapDirective

	mu        sync.Mutex
	decisions int
}

func (d *plannedRounds) Decide(req DecideRequest) (DecideResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.decisions++
	var resp DecideResponse
	for _, sw := range d.at[d.decisions] {
		if slices.Contains(req.ActiveSet, sw.Out) && slices.Contains(req.SpareSet, sw.In) {
			resp.Swaps = append(resp.Swaps, sw)
		}
	}
	return resp, nil
}

// TestOneSwapRecordPerRound forces swaps on a 2+1 and a 4+4 world, with
// spares the fault plan kills so that directives and whole rounds abort.
// The leader states each proposed round in exactly one SwapRecord under
// the epoch it proposed; the record's phases sum to its paid time; its
// verdict and its pairs' outcomes are the run's commits and aborts.
func TestOneSwapRecordPerRound(t *testing.T) {
	for _, tc := range []struct {
		name           string
		size, active   int
		rounds         map[int][]SwapDirective // by decision; decision k follows iteration k
		chaos          string
		verdicts       []string
		swaps, aborted int
	}{{
		// Rank 0 swaps out, dies parked, and aborts the round that
		// proposes it back. It dies once iteration 4 begins, which waits
		// for the spare it committed to, so its outcome has arrived.
		name: "2+1", size: 3, active: 2,
		rounds:   map[int][]SwapDirective{2: {{Out: 0, In: 2}}, 4: {{Out: 1, In: 0}}},
		chaos:    "die:rank=0,iter=4",
		verdicts: []string{obs.VerdictCommit, obs.VerdictAbort},
		swaps:    1, aborted: 1,
	}, {
		// Spares 5 and 7 are dead from the start: the first round commits
		// one of its two directives, the last commits none.
		name: "4+4", size: 8, active: 4,
		rounds: map[int][]SwapDirective{
			2: {{Out: 0, In: 4}, {Out: 1, In: 5}},
			4: {{Out: 2, In: 6}},
			6: {{Out: 3, In: 7}},
		},
		chaos:    "die:rank=5,iter=0;die:rank=7,iter=0",
		verdicts: []string{obs.VerdictCommit, obs.VerdictCommit, obs.VerdictAbort},
		swaps:    2, aborted: 2,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.MustParse(tc.chaos)
			w, err := mpi.NewWorldWithConfig(mpi.Config{Size: tc.size, Fault: plan, Clock: clock.NewScaled(20)})
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New(tc.size, obs.WithClock(clock.Seconds(w.Clock())))
			tr.Enable()
			var out sync.Map
			stats, err := RunWithStats(w, Config{Active: tc.active, Decider: &plannedRounds{at: tc.rounds},
				Probe: func(int) float64 { return 1000 }, TransferTimeout: time.Second, Tracer: tr},
				chaosBody(8, plan, 0, &out))
			if err != nil {
				t.Fatal(err)
			}
			if stats.Swaps != tc.swaps || stats.SwapAborts != tc.aborted {
				t.Fatalf("%d swaps, %d aborts; the plan makes %d and %d", stats.Swaps, stats.SwapAborts, tc.swaps, tc.aborted)
			}

			// A round cannot end before the acknowledged transfers it
			// committed: each outgoing rank votes after its ack.
			events := tr.Events()
			if c := obs.CheckCausality(events); !c.Ok() {
				t.Errorf("the trace fails the causality validations: %v", c.Violations)
			}
			acked := map[uint64]float64{}
			for _, ev := range events {
				if ev.Kind == obs.KindStateTransfer && ev.Detail == "out" {
					acked[ev.Epoch] = max(acked[ev.Epoch], ev.T+ev.Dur)
				}
			}
			var proposed, recorded []uint64
			var verdicts []string
			committed, aborted := 0, 0
			for _, ev := range events {
				switch {
				case ev.Kind == obs.KindSwapDecision && ev.Swaps > 0:
					proposed = append(proposed, ev.Epoch+1)
				case ev.Kind == obs.KindSwapRecord:
					recorded = append(recorded, ev.Epoch)
					verdicts = append(verdicts, ev.Verdict)
					if ev.Round == nil || len(ev.Round.Pairs) != ev.Swaps {
						t.Fatalf("record %+v: want one pair per directive", ev)
					}
					if sum := ev.Round.Phases.Paid(); ev.Dur <= 0 || math.Abs(sum-ev.Dur) > 0.01*ev.Dur {
						t.Errorf("epoch %d: paid %.6gs, phases %+v sum to %.6gs", ev.Epoch, ev.Dur, ev.Round.Phases, sum)
					}
					if end := acked[ev.Epoch]; ev.Verdict == obs.VerdictCommit && ev.T+ev.Dur < end-1e-9 {
						t.Errorf("epoch %d: the round ends at %.6gs, before its transfer was acknowledged at %.6gs", ev.Epoch, ev.T+ev.Dur, end)
					}
					won := false
					for _, p := range ev.Round.Pairs {
						if p.Committed {
							committed++
						} else {
							aborted++
						}
						won = won || p.Committed
					}
					if (ev.Verdict == obs.VerdictCommit) != won {
						t.Errorf("epoch %d: verdict %q over pairs %+v", ev.Epoch, ev.Verdict, ev.Round.Pairs)
					}
				}
			}
			if !slices.Equal(recorded, proposed) {
				t.Errorf("records under epochs %v for rounds proposing %v", recorded, proposed)
			}
			if !slices.Equal(verdicts, tc.verdicts) {
				t.Errorf("verdicts %v, want %v", verdicts, tc.verdicts)
			}
			if committed != stats.Swaps || aborted != stats.SwapAborts {
				t.Errorf("records hold %d committed and %d aborted directives; the run %d and %d",
					committed, aborted, stats.Swaps, stats.SwapAborts)
			}
		})
	}
}
