package main

import (
	"net"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/swaprt"
	"repro/internal/swaprt/mgrstore"
)

// recordingLeaf counts what reaches the bottom of a decision stack.
type recordingLeaf struct {
	mu    sync.Mutex
	calls map[string]int
}

func (l *recordingLeaf) hit(call string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls[call]++
}

func (l *recordingLeaf) Decide(swaprt.DecideRequest) (swaprt.DecideResponse, error) {
	l.hit("Decide")
	return swaprt.DecideResponse{}, nil
}
func (l *recordingLeaf) Report(swaprt.ReportMsg) error         { l.hit("Report"); return nil }
func (l *recordingLeaf) ReportOutcome(swaprt.OutcomeMsg) error { l.hit("ReportOutcome"); return nil }
func (l *recordingLeaf) Ping() error                           { l.hit("Ping"); return nil }

// TestEveryLayerForwardsEveryCallOnce wraps a recording leaf in each
// layer of the decision pipeline (DESIGN.md §13) and in the full
// composition a supervised swaprun talks through, and requires each of
// Decider's four calls to arrive exactly once. It lives here because
// only this package sees all the layers: meteredDecider is swapmgr's.
// A wrapper that forgets to forward a call — the bug PR 10 patched in
// DurableDecider — fails its row.
func TestEveryLayerForwardsEveryCallOnce(t *testing.T) {
	pass := func() error { return nil }
	durable := func(next swaprt.Decider) swaprt.Decider {
		d, err := swaprt.NewDurableDecider(next, mgrstore.NewMemStore(clock.Real{}), nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	metered := func(next swaprt.Decider) swaprt.Decider {
		return newMeteredDecider(next, nil, obs.NewRegistry())
	}
	served := func(next swaprt.Decider) swaprt.Decider {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() { _ = swaprt.ServeManager(ln, next, nil) }()
		return swaprt.RemoteDecider{Addr: ln.Addr().String()}
	}
	gated := func(next swaprt.Decider) swaprt.Decider {
		return swaprt.GatedDecider{Forward: swaprt.Forward{Next: next}, Gate: pass}
	}
	resilient := func(next swaprt.Decider) swaprt.Decider {
		return &swaprt.ResilientDecider{Primary: next}
	}
	for _, tc := range []struct {
		name string
		wrap func(leaf swaprt.Decider) swaprt.Decider
	}{
		{"Forward", func(l swaprt.Decider) swaprt.Decider { return swaprt.Forward{Next: l} }},
		{"Gated", gated},
		{"Resilient", resilient},
		{"Durable", durable},
		{"metered", metered},
		{"Remote=>ServeManager", served},
		{"Resilient->Gated->Remote=>ServeManager->Durable->metered", func(l swaprt.Decider) swaprt.Decider {
			return resilient(gated(served(durable(metered(l)))))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaf := &recordingLeaf{calls: map[string]int{}}
			callEach(t, tc.wrap(leaf))
			for _, call := range []string{"Decide", "Report", "ReportOutcome", "Ping"} {
				if got := leaf.calls[call]; got != 1 {
					t.Errorf("%s reached the leaf %d times, want exactly 1", call, got)
				}
			}
		})
	}
	// The resilient layer's second destination: while the primary
	// answers, the fallback decides nothing and is pinged for nothing,
	// but hears every measurement and every outcome — the decision an
	// outcome closes may have been a degraded-mode one, armed in the
	// fallback's lens.
	t.Run("Resilient fallback", func(t *testing.T) {
		fallback := &recordingLeaf{calls: map[string]int{}}
		callEach(t, &swaprt.ResilientDecider{Primary: &recordingLeaf{calls: map[string]int{}}, Fallback: fallback})
		for call, want := range map[string]int{"Decide": 0, "Report": 1, "ReportOutcome": 1, "Ping": 0} {
			if got := fallback.calls[call]; got != want {
				t.Errorf("%s reached the fallback %d times, want %d", call, got, want)
			}
		}
	})
}

// callEach makes each of Decider's four calls once.
func callEach(t *testing.T, d swaprt.Decider) {
	t.Helper()
	if _, err := d.Decide(swaprt.DecideRequest{ActiveSet: []int{0}, ActiveRates: []float64{100},
		SpareSet: []int{1}, SpareRates: []float64{100}, IterTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Report(swaprt.ReportMsg{Rank: 0, Now: 1, Rate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := d.ReportOutcome(swaprt.OutcomeMsg{Epoch: 1, Committed: true, NewSet: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Ping(); err != nil {
		t.Fatal(err)
	}
}
