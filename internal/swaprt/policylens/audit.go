package policylens

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// AuditResult is the outcome of replaying a JSONL trace against the
// lens contract: every committed swap must carry realized-payback
// attribution, every realized event must be internally consistent, and
// the shadow panel's decisions are summarized per policy.
type AuditResult struct {
	Decisions  int // SwapDecision events seen
	SwapOrders int // decisions that ordered swaps
	Committed  int // rounds whose SwapRecord says they committed
	Pending    int // commits too close to trace end to be scored

	Realized    int // PaybackRealized events
	Mispredicts int // verdict "mispredict" or "never"

	Shadow []PolicyScore // per-policy scoreboard rebuilt from the trace

	// Violations are contract breaches: committed swaps with no
	// realization, realizations for epochs never committed, proposed
	// rounds without exactly one record, and verdict/tolerance
	// inconsistencies. Deterministically ordered.
	Violations []string
	// Findings are noteworthy but non-fatal: each misprediction with
	// its numbers. Deterministically ordered.
	Findings []string
}

// OK reports whether the trace honors the lens contract.
func (r AuditResult) OK() bool { return len(r.Violations) == 0 }

// Audit replays a trace (as read by obs.ReadJSONL) against the lens
// contract, judged by the lens's own constants: every proposed round
// states exactly one SwapRecord, a realized event must not claim "ok"
// above tolerance, and a committed round needs realizeAfter subsequent
// swap-point decisions before a missing realization is a violation (fewer
// count as pending). It is pure: same events in, same result out.
func Audit(events []obs.Event) AuditResult {
	var res AuditResult
	type commit struct {
		epoch     uint64
		decisions int // SwapDecision events after the round's record
	}
	var commits []*commit
	committed := map[uint64]bool{}
	realizedByEpoch := map[uint64]int{} // PaybackRealized per epoch
	shadow := map[string]*PolicyScore{}

	for _, ev := range events {
		switch ev.Kind {
		case obs.KindSwapDecision:
			res.Decisions++
			for _, c := range commits {
				c.decisions++
			}
			if ev.Swaps > 0 {
				res.SwapOrders++
			}
		case obs.KindSwapRecord:
			// A relocation's record orders no directive: the lens audits
			// swap rounds.
			if ev.Swaps > 0 && ev.Verdict == obs.VerdictCommit {
				committed[ev.Epoch] = true
				commits = append(commits, &commit{epoch: ev.Epoch})
			}
		case obs.KindPaybackRealized:
			res.Realized++
			realizedByEpoch[ev.Epoch]++
			if ev.Verdict != "ok" {
				res.Mispredicts++
				res.Findings = append(res.Findings, fmt.Sprintf(
					"epoch %d: %s (predicted payback %.4g, realized %.4g, err %.3g > tol %.3g)",
					ev.Epoch, ev.Verdict, ev.Value, ev.Payback, ev.Z, tolerance))
			}
			if ev.Verdict == "ok" && ev.Z > tolerance {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"epoch %d: realized event claims ok but error %.3g exceeds tolerance %.3g",
					ev.Epoch, ev.Z, tolerance))
			}
			// The round's record precedes its realization: the lens
			// realizes a payback iterations after the round settled.
			if !committed[ev.Epoch] {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"epoch %d: payback realized for an epoch the trace never committed", ev.Epoch))
			}
		case obs.KindShadowDecision:
			s := shadow[ev.Detail]
			if s == nil {
				s = &PolicyScore{Policy: ev.Detail}
				shadow[ev.Detail] = s
			}
			s.Decisions++
			diverged := len(ev.Reason) >= 7 && ev.Reason[:7] == "diverge"
			if !diverged {
				s.Agreements++
			} else if ev.Swaps > 0 {
				s.WouldSwap++
			} else {
				s.WouldStay++
			}
			if ev.Value > 0 {
				s.ItersWon += ev.Value
			} else {
				s.ItersLost -= ev.Value
			}
		}
	}

	res.Violations = append(res.Violations, obs.CheckRounds(events)...)
	// Every committed round with a full sample window behind it must have
	// been realized.
	for _, c := range commits {
		res.Committed++
		switch {
		case realizedByEpoch[c.epoch] > 0:
		case c.decisions < realizeAfter:
			res.Pending++
		default:
			res.Violations = append(res.Violations, fmt.Sprintf(
				"epoch %d: committed swap has %d post-commit decisions but no realized payback (window %d)",
				c.epoch, c.decisions, realizeAfter))
		}
	}

	for _, s := range shadow {
		res.Shadow = append(res.Shadow, *s)
	}
	sort.Slice(res.Shadow, func(i, j int) bool { return res.Shadow[i].Policy < res.Shadow[j].Policy })
	return res
}

// WriteReport renders the audit deterministically; tracecheck -audit
// prints it and exits non-zero when violations exist.
func (r AuditResult) WriteReport(w io.Writer) error {
	pr := func(format string, a ...any) {
		fmt.Fprintf(w, format+"\n", a...)
	}
	pr("policy lens audit")
	pr("  decisions:     %d (%d ordered swaps)", r.Decisions, r.SwapOrders)
	pr("  committed:     %d (%d pending at trace end)", r.Committed, r.Pending)
	pr("  realized:      %d (%d mispredicted)", r.Realized, r.Mispredicts)
	if len(r.Shadow) == 0 {
		pr("  shadow:        none")
	}
	for _, s := range r.Shadow {
		pr("  shadow %-9s %d decisions, %d agree, %d would-swap, %d would-stay, iters won %.3g lost %.3g",
			s.Policy+":", s.Decisions, s.Agreements, s.WouldSwap, s.WouldStay,
			s.ItersWon, s.ItersLost)
	}
	for _, f := range r.Findings {
		pr("  finding:   %s", f)
	}
	for _, v := range r.Violations {
		pr("  VIOLATION: %s", v)
	}
	if r.OK() {
		pr("  audit ok")
	} else {
		pr("  audit FAILED: %d violation(s)", len(r.Violations))
	}
	return nil
}
