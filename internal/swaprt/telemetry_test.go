package swaprt

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestTelemetryDisabledNoOp: a nil hub is the hub switched off. It drops
// every observation without panicking and reports empty.
func TestTelemetryDisabledNoOp(t *testing.T) {
	var nilHub *TelemetryHub
	nilHub.ObserveIteration(0, 1, 0.1)
	nilHub.ObserveProbe(0, 1, 100)
	nilHub.ObserveDecision(1, nil, 0, 0.001)
	nilHub.ObserveRound(obs.Event{Kind: obs.KindSwapRecord, Round: &obs.SwapRound{Pairs: []obs.SwapPair{{Out: 0, In: 1}}}})
	nilHub.ObserveEpoch(1, []int{0})
	nilHub.AttachTracer(nil)
	nilHub.SetCircuitProbe(func() string { return "closed" })
	nilHub.Absorb(&RankTelemetry{Rank: 0})
	if nilHub.RankSnapshot(0) != nil {
		t.Fatal("nil hub produced a snapshot")
	}
	rep := nilHub.Report()
	if rep.Ranks == nil || len(rep.Ranks) != 0 || rep.Decisions.Count != 0 {
		t.Fatalf("nil hub reported data: %+v", rep)
	}
}

// TestTelemetryHubReport drives a hub directly and checks the report:
// per-rank quantiles, anomaly detection with a KindAnomaly trace event,
// decision paybacks, control state, and absorbed-snapshot merging with
// local precedence.
func TestTelemetryHubReport(t *testing.T) {
	now := 0.0
	h := NewTelemetryHub(func() float64 { return now })
	tr := obs.New(2)
	tr.Enable()
	h.AttachTracer(tr)

	// Rank 0: a stable baseline then an 8x excursion — the detector must
	// fire and the hub must both record and trace it.
	for i := 0; i < 16; i++ {
		now = float64(i)
		h.ObserveIteration(0, now, 0.1+0.001*float64(i%4))
	}
	now = 16
	h.ObserveIteration(0, now, 0.8)
	h.ObserveIteration(1, 16, 0.2)

	h.ObserveProbe(0, 17, 123)
	h.ObserveDecision(17, &core.Explanation{Verdict: "swap", Reason: "gain", Payback: 3.5}, 1, 0.002)
	h.ObserveRound(obs.Event{Kind: obs.KindSwapRecord, Swaps: 2, Epoch: 1, Verdict: obs.VerdictCommit,
		Round: &obs.SwapRound{Pairs: []obs.SwapPair{{Out: 1, In: 3, Committed: true}, {Out: 0, In: 2}}}})
	h.ObserveEpoch(1, []int{0, 3})
	h.SetCircuitProbe(func() string { return "half-open" })
	h.Absorb(&RankTelemetry{Rank: 5, Iters: 7, Rate: 42})
	h.Absorb(&RankTelemetry{Rank: 0, Iters: 999}) // local rank 0 must win

	rep := h.Report()
	if len(rep.Ranks) != 3 || rep.Ranks[0].Rank != 0 || rep.Ranks[1].Rank != 1 || rep.Ranks[2].Rank != 5 {
		t.Fatalf("ranks = %+v", rep.Ranks)
	}
	r0 := rep.Ranks[0]
	if r0.Iters != 17 {
		t.Fatalf("local rank 0 snapshot overridden by absorbed one: %+v", r0)
	}
	if r0.Anomalies != 1 || r0.LastAnomaly == nil || r0.LastAnomaly.Value != 0.8 {
		t.Fatalf("anomaly not detected: %+v", r0)
	}
	if r0.IterTime.N == 0 || r0.IterTime.P99 < r0.IterTime.P50 {
		t.Fatalf("bad quantiles: %+v", r0.IterTime)
	}
	if r0.Rate != 123 {
		t.Fatalf("probe rate = %g", r0.Rate)
	}
	if rep.Ranks[2].Iters != 7 || rep.Ranks[2].Rate != 42 {
		t.Fatalf("absorbed rank 5 lost: %+v", rep.Ranks[2])
	}

	d := rep.Decisions
	if d.Count != 1 || d.SwapVerdicts != 1 || d.Swaps != 1 || d.Aborts != 1 {
		t.Fatalf("decision counts: %+v", d)
	}
	if d.LastVerdict != "swap" || d.LastPayback != 3.5 || d.Payback.N != 1 {
		t.Fatalf("payback telemetry: %+v", d)
	}
	if rep.Epoch != 1 || len(rep.ActiveSet) != 2 {
		t.Fatalf("epoch/active set: %+v", rep)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 2 {
		t.Fatalf("quarantined: %v", rep.Quarantined)
	}
	if rep.Circuit != "half-open" {
		t.Fatalf("circuit: %q", rep.Circuit)
	}

	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindAnomaly && ev.Rank == 0 && ev.Z > 0 && ev.Detail == "iter_time" {
			found = true
		}
	}
	if !found {
		t.Fatal("no KindAnomaly event traced")
	}
}

// TestTelemetryHandler pins the /telemetry JSON contract (including the
// nil-hub empty document) that cmd/swapmon parses.
func TestTelemetryHandler(t *testing.T) {
	h := NewTelemetryHub(nil)
	h.ObserveIteration(1, 0.5, 0.1)
	srv := httptest.NewServer(TelemetryHandler(h))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var rep TelemetryReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != 1 || rep.Ranks[0].Rank != 1 {
		t.Fatalf("report %+v", rep)
	}

	srv2 := httptest.NewServer(TelemetryHandler(nil))
	defer srv2.Close()
	resp2, err := srv2.Client().Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rep2 TelemetryReport
	if err := json.NewDecoder(resp2.Body).Decode(&rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Ranks == nil || len(rep2.Ranks) != 0 {
		t.Fatalf("nil-hub report %+v", rep2)
	}
}

// TestTelemetryThroughRuntime runs a real swapping run with a hub
// attached and checks that iterations, the decision stream, the epoch
// and the swap land in the report — and that handler reports piggyback
// rank snapshots to the decider.
func TestTelemetryThroughRuntime(t *testing.T) {
	w, clk := fakeWorld(t, 3)
	rt := &rateTable{rates: []float64{100, 100, 1000}} // rank 2 is a fast spare
	hub := NewTelemetryHub(clock.Seconds(clk))
	err := Run(w, Config{
		Active:    2,
		Policy:    core.Greedy(),
		Probe:     rt.probe,
		Telemetry: hub,
	}, iterBody(20, clk, nil))
	if err != nil {
		t.Fatal(err)
	}
	rep := hub.Report()
	if rep.Decisions.Count == 0 {
		t.Fatalf("no decisions observed: %+v", rep.Decisions)
	}
	if rep.Decisions.Swaps == 0 || rep.Epoch == 0 {
		t.Fatalf("swap not observed: %+v", rep)
	}
	if len(rep.Ranks) == 0 {
		t.Fatal("no rank telemetry")
	}
	var iters int
	for _, r := range rep.Ranks {
		iters += r.Iters
	}
	if iters == 0 {
		t.Fatal("no iterations observed")
	}
}
