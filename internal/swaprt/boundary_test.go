package swaprt

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/strategy"
	"repro/internal/swaprt/policylens"
)

// TestOwnShadowAgreesWithPrimary holds every embodiment of the swap
// boundary to one contract: the lens's shadow of the primary's own
// policy replays the input the primary decided on, so on every decision
// it reaches the primary's verdict with the primary's decisive pair and
// payback. Live in process (Config.Lens), live behind a served durable
// manager (the lens on its LocalDecider, as swapmgr -lens), and
// simulated (strategy.Swap) — under greedy, and under safe and friendly,
// whose history windows make the estimates differ from the probes.
func TestOwnShadowAgreesWithPrimary(t *testing.T) {
	// Rank 0's host degrades at iteration 6 (the TestSteppedRunIsDeterministic
	// scenario): the windowed policies see the slowdown late, the probes
	// see it at once.
	rate := func(rank, iter int) float64 {
		if rank == 0 && iter >= 6 {
			return 100
		}
		return 1000
	}
	const iters, step = 40, 50 * time.Millisecond
	for _, pol := range []core.Policy{core.Greedy(), core.Safe(), core.Friendly()} {
		for _, served := range []bool{false, true} {
			name := pol.Name + "/live"
			if served {
				name = pol.Name + "/served"
			}
			t.Run(name, func(t *testing.T) {
				tr := obs.New(3)
				tr.Enable()
				lens := policylens.New(policylens.Config{Tracer: tr})
				steppedRun(t, pol, iters, step, rate, steppedAudit{tracer: tr, lens: lens, served: served})
				checkOwnShadow(t, pol, tr.Events(), lens.Report(), iters)
			})
		}
		t.Run(pol.Name+"/sim", func(t *testing.T) {
			p := platform.New(simkern.New(), platform.Default(8, loadgen.NewOnOff(0.3)), rng.NewSource(63))
			tr := obs.New(4, obs.WithClock(p.Kernel.Now))
			tr.Enable()
			p.Kernel.SetTracer(tr)
			a := app.Default(8).WithState(50e6)
			res := strategy.Swap{}.Run(p, strategy.Scenario{Active: 4, App: a, Policy: pol,
				Lens: policylens.New(policylens.Config{Tracer: tr})})
			checkOwnShadow(t, pol, tr.Events(), *res.Lens, a.Iterations-1)
		})
	}
}

// checkOwnShadow zips the primary's SwapDecision events with the
// ShadowDecision events of the shadow running the primary's policy and
// requires them to agree on each of the decisions, down to the numbers.
func checkOwnShadow(t *testing.T, pol core.Policy, events []obs.Event, rep policylens.Report, decisions int) {
	t.Helper()
	var primary, shadow []obs.Event
	for _, ev := range events {
		switch {
		case ev.Kind == obs.KindSwapDecision:
			primary = append(primary, ev)
		case ev.Kind == obs.KindShadowDecision && ev.Detail == pol.Name:
			shadow = append(shadow, ev)
		}
	}
	if len(primary) != decisions || len(shadow) != decisions {
		t.Fatalf("%d primary and %d own-policy shadow decisions, want %d of each",
			len(primary), len(shadow), decisions)
	}
	swaps := 0
	for i, p := range primary {
		s := shadow[i]
		payback := p.Payback
		if math.IsInf(payback, 0) || math.IsNaN(payback) {
			payback = 0 // the lens keeps its events JSON-encodable
		}
		if s.T != p.T || !strings.HasPrefix(s.Reason, "agree: ") || s.Swaps != p.Swaps ||
			s.OldPerf != p.OldPerf || s.NewPerf != p.NewPerf || s.Payback != payback {
			t.Errorf("decision %d at t=%g: primary %s %d swaps (old %g new %g payback %g), own shadow %q %d swaps (old %g new %g payback %g)",
				i, p.T, p.Verdict, p.Swaps, p.OldPerf, p.NewPerf, p.Payback,
				s.Reason, s.Swaps, s.OldPerf, s.NewPerf, s.Payback)
		}
		if p.Swaps > 0 {
			swaps++
		}
	}
	if swaps == 0 {
		t.Error("the primary never swapped: the agreement was only ever on staying")
	}
	for _, sc := range rep.Shadow {
		if sc.Policy == pol.Name && (sc.Decisions != decisions || sc.Agreements != decisions) {
			t.Errorf("lens scoreboard for %s: %d of %d decisions agreed, want all %d",
				pol.Name, sc.Agreements, sc.Decisions, decisions)
		}
	}
}
