package swaprt

import (
	"testing"
	"time"

	"repro/internal/core"
)

// A long-lived decider keeps what its policy's history window reaches
// and no more: over 50k swap points with handler reports in between, a
// rank's history never outgrows one window's worth of samples, and with
// no window (greedy) it is the latest sample alone.
func TestLocalDeciderHistoryStaysBounded(t *testing.T) {
	const (
		decisions = 50_000
		step      = 0.01 // seconds between swap points; a report halfway
		window    = 1.0
	)
	windowed := core.Safe()
	windowed.HistoryWindow = window
	for _, c := range []struct {
		policy core.Policy
		bound  int // samples per rank
	}{
		{windowed, int(2*window/step) + 2},
		{core.Greedy(), 1},
	} {
		d := NewLocalDecider(c.policy)
		req := decideReq(0, 2)
		for i := 0; i < decisions; i++ {
			req.Now = float64(i) * step
			if _, err := d.Decide(req); err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < 3; rank++ {
				if err := d.Report(ReportMsg{Rank: rank, Now: req.Now + step/2, Rate: 100}); err != nil {
					t.Fatal(err)
				}
			}
			if i%1000 == 0 || i == decisions-1 {
				for rank, h := range d.hist {
					if n := h.Len(); n > c.bound || n == 0 {
						t.Fatalf("%s, decision %d: rank %d holds %d samples, want 1..%d",
							c.policy.Name, i, rank, n, c.bound)
					}
				}
			}
		}
		if len(d.hist) != 3 {
			t.Fatalf("%s: histories for %d ranks, want 3", c.policy.Name, len(d.hist))
		}
	}
}

// A decision costs the same whatever history it looks back over: under
// the safe policy (a 300 s window), a 2+1 world's decision with 20,000
// samples of history in each rank's window takes at most twice one with
// 256, or the window mean has gone back to scanning its samples. The swap
// points are spaced so that each window holds its number of samples
// throughout; each side's cost is the best of a few fixed-size loops,
// the two sides taking turns, so a busy host slows both alike.
func TestLocalDeciderCostIsFlatInHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's instrumentation does not cost the same per sample")
	}
	const rounds, loop = 7, 500
	type side struct {
		samples int
		decide  func()
		best    time.Duration
	}
	newSide := func(samples int) *side {
		pol := core.Safe()
		d := NewLocalDecider(pol)
		req := DecideRequest{
			ActiveSet: []int{0, 1}, ActiveRates: []float64{1000, 1001},
			SpareSet: []int{2}, SpareRates: []float64{1002},
			IterTime: 300e-6, SwapTime: 0.0005,
		}
		step := pol.HistoryWindow / float64(samples)
		sd := &side{samples: samples, best: time.Duration(1<<63 - 1)}
		sd.decide = func() {
			req.Now += step
			if _, err := d.Decide(req); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < samples; i++ {
			sd.decide()
		}
		return sd
	}
	short, long := newSide(256), newSide(20_000)
	for r := 0; r < rounds; r++ {
		for _, sd := range []*side{short, long} {
			start := time.Now()
			for i := 0; i < loop; i++ {
				sd.decide()
			}
			sd.best = min(sd.best, time.Since(start))
		}
	}
	t.Logf("a decision over %d samples: %v, over %d samples: %v", short.samples, short.best/loop, long.samples, long.best/loop)
	if long.best > 2*short.best {
		t.Errorf("a decision over %d samples of history took %v, over %d samples %v: want within 2x",
			long.samples, long.best/loop, short.samples, short.best/loop)
	}
}

// The leader's manager checks every directive a decider hands back —
// deciders can be remote — and its per-decision scratch carries nothing
// from one decision into the next.
func TestManagerDecideValidatesDirectives(t *testing.T) {
	const ranks = 6 // active 0 and 1, spares 2, 3, 4 (quarantined) and 5 (evicted)
	inner := &scriptDecider{}
	m := newManager(ranks, Config{
		Probe:   func(int) float64 { return 1000 },
		Evicted: func(rank int) bool { return rank == 5 },
	}, inner)
	m.quarantine(4)
	decide := func(swaps ...SwapDirective) (DecideResponse, error) {
		inner.resp = DecideResponse{Swaps: swaps}
		return m.decide(0, 1, []int{0, 1}, []float64{100, 100}, ranks, 1, 0.1)
	}
	for _, c := range []struct {
		name  string
		swaps []SwapDirective
		ok    bool
	}{
		{"no swaps", nil, true},
		{"two disjoint swaps", []SwapDirective{{Out: 0, In: 2}, {Out: 1, In: 3}}, true},
		{"in beyond the world", []SwapDirective{{Out: 0, In: ranks}}, false},
		{"out below the world", []SwapDirective{{Out: -1, In: 2}}, false},
		{"out is a spare", []SwapDirective{{Out: 3, In: 2}}, false},
		{"in is active", []SwapDirective{{Out: 0, In: 1}}, false},
		{"in is quarantined", []SwapDirective{{Out: 0, In: 4}}, false},
		{"in is evicted", []SwapDirective{{Out: 0, In: 5}}, false},
		{"spare named twice", []SwapDirective{{Out: 0, In: 2}, {Out: 1, In: 2}}, false},
		{"active named twice", []SwapDirective{{Out: 0, In: 2}, {Out: 0, In: 3}}, false},
		{"the first pair again, after the failures", []SwapDirective{{Out: 0, In: 2}, {Out: 1, In: 3}}, true},
	} {
		resp, err := decide(c.swaps...)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && len(resp.Swaps) != len(c.swaps) {
			t.Errorf("%s: %d directives back, want %d", c.name, len(resp.Swaps), len(c.swaps))
		}
		if got := inner.lastSpares(t); len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Errorf("%s: decider offered spares %v, want [2 3]", c.name, got)
		}
	}
}
