package policylens

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// committedSwapTrace is a minimal trace of one committed swap: the
// decision at epoch 0 proposes epoch 1, its record says the round
// committed, and n further decisions follow.
func committedSwapTrace(n int, realized bool) []obs.Event {
	evs := []obs.Event{
		{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: 1, Swaps: 1, Epoch: 0, Verdict: "swap"},
		{Kind: obs.KindStateTransfer, Rank: 0, T: 1.5, Peer: 2, Epoch: 1},
		{Kind: obs.KindSwapRecord, Rank: obs.RankRuntime, T: 1, Dur: 1, Swaps: 1, Epoch: 1, Verdict: obs.VerdictCommit},
	}
	for i := 0; i < n; i++ {
		evs = append(evs, obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime,
			T: float64(2 + i), Swaps: 0, Epoch: 1, Verdict: "stay"})
	}
	if realized {
		evs = append(evs, obs.Event{Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime,
			T: 10, Epoch: 1, Verdict: "ok", Payback: 0.4, Value: 0.4})
	}
	return evs
}

func TestAuditAcceptsRealizedCommit(t *testing.T) {
	res := Audit(committedSwapTrace(realizeAfter, true))
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Committed != 1 || res.Realized != 1 || res.Pending != 0 {
		t.Fatalf("committed=%d realized=%d pending=%d", res.Committed, res.Realized, res.Pending)
	}
}

func TestAuditFlagsMissingRealization(t *testing.T) {
	res := Audit(committedSwapTrace(realizeAfter, false))
	if res.OK() {
		t.Fatal("missing realization not flagged")
	}
	if !strings.Contains(res.Violations[0], "no realized payback") {
		t.Fatalf("violation %q", res.Violations[0])
	}
}

func TestAuditToleratesPendingAtTraceEnd(t *testing.T) {
	// One decision short of the window after the commit: the lens
	// could not have realized it yet.
	res := Audit(committedSwapTrace(realizeAfter-1, false))
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Pending != 1 {
		t.Fatalf("pending=%d, want 1", res.Pending)
	}
}

func TestAuditIgnoresAbortedProposal(t *testing.T) {
	// A round whose record says it aborted owes no realization, however
	// many decisions follow it.
	evs := []obs.Event{
		{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: 1, Swaps: 1, Epoch: 0, Verdict: "swap"},
		{Kind: obs.KindSwapAbort, Rank: 0, T: 1.5, Peer: 2, Epoch: 1},
		{Kind: obs.KindSwapRecord, Rank: obs.RankRuntime, T: 1, Dur: 1, Swaps: 1, Epoch: 1, Verdict: obs.VerdictAbort},
	}
	for i := 0; i < realizeAfter; i++ {
		evs = append(evs, obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: float64(2 + i), Verdict: "stay"})
	}
	res := Audit(evs)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Committed != 0 {
		t.Fatalf("committed=%d, want 0", res.Committed)
	}
}

func TestAuditFlagsARoundWithoutOneRecord(t *testing.T) {
	for _, records := range []int{0, 2} {
		evs := committedSwapTrace(realizeAfter, true)
		evs = slices.DeleteFunc(evs, func(ev obs.Event) bool { return ev.Kind == obs.KindSwapRecord })
		for i := 0; i < records; i++ {
			evs = append(evs, obs.Event{Kind: obs.KindSwapRecord, Rank: obs.RankRuntime, T: 1,
				Swaps: 1, Epoch: 1, Verdict: obs.VerdictCommit})
		}
		want := fmt.Sprintf("epoch 1: 1 proposed rounds but %d swap records", records)
		if res := Audit(evs); !slices.Contains(res.Violations, want) {
			t.Errorf("%d records: violations %q, want %q", records, res.Violations, want)
		}
	}
}

func TestAuditFlagsOrphanRealization(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime, T: 1, Epoch: 7, Verdict: "ok"},
	}
	res := Audit(evs)
	if res.OK() || !strings.Contains(res.Violations[0], "never committed") {
		t.Fatalf("orphan realization not flagged: %v", res.Violations)
	}
}

func TestAuditFlagsInconsistentOKVerdict(t *testing.T) {
	evs := committedSwapTrace(realizeAfter, false)
	evs = append(evs, obs.Event{Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime,
		T: 10, Epoch: 1, Verdict: "ok", Z: 6 * tolerance}) // error way over tolerance
	res := Audit(evs)
	if res.OK() {
		t.Fatal("inconsistent ok verdict not flagged")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "claims ok but error") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v", res.Violations)
	}
}

func TestAuditCountsMispredictFindings(t *testing.T) {
	evs := committedSwapTrace(realizeAfter, false)
	evs = append(evs, obs.Event{Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime,
		T: 10, Epoch: 1, Verdict: "mispredict", Z: 2.0, Payback: 1.2, Value: 0.4})
	res := Audit(evs)
	if !res.OK() {
		t.Fatalf("mispredict must be a finding, not a violation: %v", res.Violations)
	}
	if res.Mispredicts != 1 || len(res.Findings) != 1 {
		t.Fatalf("mispredicts=%d findings=%d", res.Mispredicts, len(res.Findings))
	}
}

func TestAuditShadowSummary(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.KindShadowDecision, Rank: obs.RankRuntime, T: 1, Detail: "safe",
			Reason: "agree: payback ok", Swaps: 1, Value: 2},
		{Kind: obs.KindShadowDecision, Rank: obs.RankRuntime, T: 2, Detail: "safe",
			Reason: "diverge: payback too long", Swaps: 0, Value: -3},
		{Kind: obs.KindShadowDecision, Rank: obs.RankRuntime, T: 2, Detail: "greedy",
			Reason: "diverge: any gain", Swaps: 1, Value: 4},
	}
	res := Audit(evs)
	if len(res.Shadow) != 2 {
		t.Fatalf("shadow rows %d, want 2", len(res.Shadow))
	}
	// Sorted by policy name: greedy, safe.
	g, s := res.Shadow[0], res.Shadow[1]
	if g.Policy != "greedy" || s.Policy != "safe" {
		t.Fatalf("order %s,%s", g.Policy, s.Policy)
	}
	if g.WouldSwap != 1 || g.ItersWon != 4 {
		t.Fatalf("greedy %+v", g)
	}
	if s.Decisions != 2 || s.Agreements != 1 || s.WouldStay != 1 || s.ItersWon != 2 || s.ItersLost != 3 {
		t.Fatalf("safe %+v", s)
	}
}

func TestAuditReportDeterministic(t *testing.T) {
	evs := committedSwapTrace(realizeAfter, true)
	evs = append(evs, obs.Event{Kind: obs.KindShadowDecision, Rank: obs.RankRuntime,
		T: 1, Detail: "greedy", Reason: "agree: x", Swaps: 1, Value: 1})
	var a, b strings.Builder
	if err := Audit(evs).WriteReport(&a); err != nil {
		t.Fatal(err)
	}
	if err := Audit(evs).WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("audit report not deterministic:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "audit ok") {
		t.Fatalf("report:\n%s", a.String())
	}
}

// TestAuditAgreesWithTheLens replays a lens's own trace: realizations on
// both sides of the tolerance, each behind a full window of swap-point
// decisions. The audit judges by the lens's constants, so it counts the
// lens's mispredictions and finds no verdict to dispute.
func TestAuditAgreesWithTheLens(t *testing.T) {
	tr := obs.New(1)
	tr.Enable()
	l := New(Config{Tracer: tr})
	now := 0.0
	decision := func(epoch uint64, swaps int) {
		now++
		tr.Emit(obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: now, Epoch: epoch, Swaps: swaps})
	}
	// swapInput predicts payback 0.4 from a 10 s iteration and a 2 s
	// swap; a post-swap iteration of 10 − 5/(1+e) s realizes error e.
	errs := []float64{0.2, 0.45, 0.815, 1.4}
	for i, e := range errs {
		epoch := uint64(i)
		decision(epoch, 1)
		decideWith(l, core.Greedy(), now, epoch, swapInput())
		l.ObserveOutcome(now, epoch+1, true)
		tr.Emit(obs.Event{Kind: obs.KindSwapRecord, Rank: obs.RankRuntime, T: now, Swaps: 1,
			Epoch: epoch + 1, Verdict: obs.VerdictCommit})
		for j := 0; j < realizeAfter; j++ {
			decision(epoch+1, 0)
			l.ObserveIteration(now, 10-5/(1+e))
		}
	}
	rep := l.Report()
	if rep.Realized != len(errs) || rep.Mispredicts != 2 {
		t.Fatalf("lens realized %d, mispredicted %d; want %d, 2", rep.Realized, rep.Mispredicts, len(errs))
	}
	res := Audit(tr.Events())
	if !res.OK() {
		t.Fatalf("the audit disputes the lens: %v", res.Violations)
	}
	if res.Realized != rep.Realized || res.Mispredicts != rep.Mispredicts {
		t.Errorf("audit realized %d, mispredicted %d; the lens %d, %d",
			res.Realized, res.Mispredicts, rep.Realized, rep.Mispredicts)
	}
}
