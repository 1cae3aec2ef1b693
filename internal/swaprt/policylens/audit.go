package policylens

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/obs"
)

// AuditConfig tunes the offline replay.
type AuditConfig struct {
	// Tolerance is the relative payback error above which a realized
	// event must not claim verdict "ok"; <= 0 selects DefaultTolerance.
	Tolerance float64
	// Window is the number of iteration samples (swap-point decisions)
	// a realization needs; commits with fewer than Window subsequent
	// decisions in the trace count as pending, not violations. <= 0
	// selects DefaultRealizeAfter.
	Window int
}

// AuditResult is the outcome of replaying a JSONL trace against the
// lens contract: every committed swap must carry realized-payback
// attribution, every realized event must be internally consistent, and
// the shadow panel's decisions are summarized per policy.
type AuditResult struct {
	Decisions  int // SwapDecision events seen
	SwapOrders int // decisions that ordered swaps
	Committed  int // proposed epochs with post-commit evidence
	Pending    int // commits too close to trace end to be scored

	Realized    int // PaybackRealized events
	Mispredicts int // verdict "mispredict" or "never"

	Shadow []PolicyScore // per-policy scoreboard rebuilt from the trace

	// Violations are contract breaches: committed swaps with no
	// realization, realizations for epochs never committed, and
	// verdict/tolerance inconsistencies. Deterministically ordered.
	Violations []string
	// Findings are noteworthy but non-fatal: each misprediction with
	// its numbers. Deterministically ordered.
	Findings []string
}

// OK reports whether the trace honors the lens contract.
func (r AuditResult) OK() bool { return len(r.Violations) == 0 }

// Audit replays a trace (as read by obs.ReadJSONL) against the lens
// contract. It is pure: same events in, same result out.
func Audit(events []obs.Event, cfg AuditConfig) AuditResult {
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = DefaultTolerance
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultRealizeAfter
	}

	var res AuditResult

	// Pass 1: which epochs show post-commit evidence? A proposed epoch P
	// is committed exactly when some non-abort event later carries
	// Epoch == P (the runtime stamps IterStart/StateTransfer with the
	// new epoch only after the two-phase commit lands; the simulator
	// mirrors the convention).
	epochSeen := map[uint64]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindSwapAbort, obs.KindSwapDecision,
			obs.KindPaybackRealized, obs.KindShadowDecision:
			// Aborts, the proposing decision itself, and the lens's own
			// attributions are not commit evidence.
			continue
		}
		if ev.Epoch > 0 {
			epochSeen[ev.Epoch] = true
		}
	}

	// Pass 2: decisions, realizations, shadows.
	type proposal struct {
		epoch     uint64
		decisions int // SwapDecision events after the proposing one
	}
	var open []*proposal                // proposals counting trailing decisions
	realizedByEpoch := map[uint64]int{} // PaybackRealized per epoch
	shadow := map[string]*PolicyScore{}

	for _, ev := range events {
		switch ev.Kind {
		case obs.KindSwapDecision:
			res.Decisions++
			for _, p := range open {
				p.decisions++
			}
			if ev.Swaps > 0 {
				res.SwapOrders++
				open = append(open, &proposal{epoch: ev.Epoch + 1})
			}
		case obs.KindPaybackRealized:
			res.Realized++
			realizedByEpoch[ev.Epoch]++
			if ev.Verdict != "ok" {
				res.Mispredicts++
				res.Findings = append(res.Findings, fmt.Sprintf(
					"epoch %d: %s (predicted payback %.4g, realized %.4g, err %.3g > tol %.3g)",
					ev.Epoch, ev.Verdict, ev.Value, ev.Payback, ev.Z, cfg.Tolerance))
			}
			if ev.Verdict == "ok" && ev.Z > cfg.Tolerance {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"epoch %d: realized event claims ok but error %.3g exceeds tolerance %.3g",
					ev.Epoch, ev.Z, cfg.Tolerance))
			}
			if !epochSeen[ev.Epoch] {
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

	// Pass 3: every committed proposal with a full sample window behind
	// it must have been realized. Group by epoch: an aborted proposal
	// retried and committed under the same epoch number needs only one
	// realization, and has the most trailing decisions of its proposals.
	trailing := map[uint64]int{}
	var epochs []uint64
	for _, p := range open {
		if !epochSeen[p.epoch] {
			continue // never committed (aborted, or run ended mid-commit)
		}
		if _, ok := trailing[p.epoch]; !ok {
			epochs = append(epochs, p.epoch)
		}
		trailing[p.epoch] = max(trailing[p.epoch], p.decisions)
	}
	slices.Sort(epochs)
	for _, e := range epochs {
		res.Committed++
		switch {
		case realizedByEpoch[e] > 0:
		case trailing[e] < cfg.Window:
			res.Pending++
		default:
			res.Violations = append(res.Violations, fmt.Sprintf(
				"epoch %d: committed swap has %d post-commit decisions but no realized payback (window %d)",
				e, trailing[e], cfg.Window))
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
