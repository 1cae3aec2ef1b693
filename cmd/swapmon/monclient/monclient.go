// Package monclient is the non-UI core of the swapmon dashboard: it
// fetches /telemetry documents from a runtime or manager debug
// endpoint, renders them as deterministic text onto a caller-supplied
// writer, and checks machine-verifiable conditions on a report.
// Keeping it free of direct console output (swapvet obsdiscipline
// covers this package) means the same code drives the interactive
// dashboard and swaprun's smoke tests.
package monclient

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs/series"
	"repro/internal/swaprt"
)

// URL builds the /telemetry URL for a debug address. A bare host:port
// gets the scheme and path added; an http(s) URL is used as-is.
func URL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return addr
	}
	return "http://" + addr + "/telemetry"
}

// Fetch retrieves and decodes one telemetry report. A nil client
// selects http.DefaultClient; set a Timeout on the client you pass so a
// hung endpoint cannot stall the poll loop.
func Fetch(client *http.Client, addr string) (swaprt.TelemetryReport, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var rep swaprt.TelemetryReport
	resp, err := client.Get(URL(addr))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("monclient: GET %s: %s", URL(addr), resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("monclient: decode %s: %v", URL(addr), err)
	}
	return rep, nil
}

// Anomalies sums the per-rank anomaly counts.
func Anomalies(rep swaprt.TelemetryReport) int {
	n := 0
	for _, r := range rep.Ranks {
		n += r.Anomalies
	}
	return n
}

// Check verifies the report's acceptance conditions: at least minSwaps
// committed swaps and minAnomalies detected slowdowns, with per-rank
// telemetry present. It returns nil when all hold and a descriptive
// error naming the first unmet condition otherwise.
func Check(rep swaprt.TelemetryReport, minSwaps, minAnomalies int) error {
	if len(rep.Ranks) == 0 {
		return fmt.Errorf("monclient: no per-rank telemetry yet")
	}
	if rep.Decisions.Swaps < minSwaps {
		return fmt.Errorf("monclient: %d committed swaps, want >= %d", rep.Decisions.Swaps, minSwaps)
	}
	if n := Anomalies(rep); n < minAnomalies {
		return fmt.Errorf("monclient: %d anomalies, want >= %d", n, minAnomalies)
	}
	return nil
}

// CheckLens verifies the policy-lens acceptance conditions: at least
// minShadow shadow-policy decisions replayed, and (when maxMispredict >=
// 0) a mispredict fraction no worse than it. It returns nil when the
// gates hold; a report without a lens section fails only when a gate
// was actually requested.
func CheckLens(rep swaprt.TelemetryReport, minShadow int, maxMispredict float64) error {
	if minShadow <= 0 && maxMispredict < 0 {
		return nil
	}
	l := rep.Lens
	if l == nil || !l.Enabled {
		return fmt.Errorf("monclient: lens gates requested but the runtime has no policy lens armed")
	}
	if n := l.ShadowDecisions(); n < minShadow {
		return fmt.Errorf("monclient: %d shadow decisions, want >= %d", n, minShadow)
	}
	if maxMispredict >= 0 {
		if f := l.MispredictFraction(); f > maxMispredict {
			return fmt.Errorf("monclient: mispredict fraction %.3g (%d/%d realized), want <= %.3g",
				f, l.Mispredicts, l.Realized, maxMispredict)
		}
	}
	return nil
}

// quant renders a Quantiles as a compact fixed-order cell.
func quant(q series.Quantiles, unit string) string {
	if q.N == 0 {
		return "-"
	}
	return fmt.Sprintf("p50=%.4g%s p90=%.4g%s p99=%.4g%s max=%.4g%s (n=%d)",
		q.P50, unit, q.P90, unit, q.P99, unit, q.Max, unit, q.N)
}

// joinInts renders ints as a comma-separated list ("-" when empty).
func joinInts(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

// Render writes the dashboard view of one report: a control-state
// header, one line per rank (iteration quantiles, probe rate, anomaly
// state) and the decision summary (verdicts, committed/aborted swaps,
// payback and latency distributions). Output is deterministic for a
// given report: ranks are sorted, map-backed fields arrive pre-sorted
// from the hub.
func Render(w io.Writer, rep swaprt.TelemetryReport) {
	ranks := append([]swaprt.RankTelemetry(nil), rep.Ranks...)
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].Rank < ranks[j].Rank })

	circuit := rep.Circuit
	if circuit == "" {
		circuit = "-"
	}
	fmt.Fprintf(w, "swapmon t=%.2fs epoch=%d active=[%s] quarantined=[%s] circuit=%s\n",
		rep.Now, rep.Epoch, joinInts(rep.ActiveSet), joinInts(rep.Quarantined), circuit)

	// Causal/flight lines appear only when the run has them armed: the
	// report fields are omitempty pointers, so pre-causal runtimes (and
	// recorded reports from them) render exactly as before.
	if cz := rep.Causal; cz != nil && cz.Enabled {
		fmt.Fprintf(w, "causal: lamport max=%d sends=%d\n", cz.MaxClock, cz.Sends)
	}
	if fl := rep.Flight; fl != nil && fl.Enabled {
		dump := "-"
		if fl.Dumps > 0 {
			dump = fmt.Sprintf("%d (last %q)", fl.Dumps, fl.LastDump)
		}
		fmt.Fprintf(w, "flight: buffered=%d observed=%d dumps=%s dir=%s\n",
			fl.Buffered, fl.Observed, dump, fl.Dir)
	}

	fmt.Fprintf(w, "%-6s %8s %12s %-44s %s\n", "rank", "iters", "rate", "iter_time", "anomalies")
	for _, r := range ranks {
		rate := "-"
		if r.Rate != 0 {
			rate = fmt.Sprintf("%.4g", r.Rate)
		}
		anom := fmt.Sprintf("%d", r.Anomalies)
		if r.LastAnomaly != nil {
			anom = fmt.Sprintf("%d (last t=%.2fs %.4gs z=%.1f)",
				r.Anomalies, r.LastAnomaly.T, r.LastAnomaly.Value, r.LastAnomaly.Z)
		}
		fmt.Fprintf(w, "%-6d %8d %12s %-44s %s\n",
			r.Rank, r.Iters, rate, quant(r.IterTime, "s"), anom)
	}

	d := rep.Decisions
	fmt.Fprintf(w, "decisions: %d (%d swap verdicts) swaps=%d aborts=%d\n",
		d.Count, d.SwapVerdicts, d.Swaps, d.Aborts)
	fmt.Fprintf(w, "  payback: %s\n", quant(d.Payback, ""))
	fmt.Fprintf(w, "  latency: %s\n", quant(d.Latency, "s"))
	if d.LastVerdict != "" {
		last := d.LastVerdict
		if d.LastReason != "" {
			last += " (" + d.LastReason + ")"
		}
		if d.LastPayback > 0 {
			last += fmt.Sprintf(" payback=%.4g", d.LastPayback)
		}
		fmt.Fprintf(w, "  last: %s\n", last)
	}

	// Lens panel: the payback audit and shadow scoreboard, present only
	// when the runtime armed -lens (omitempty pointer, like causal and
	// flight above).
	if l := rep.Lens; l != nil && l.Enabled {
		fmt.Fprintf(w, "lens: decisions=%d commits=%d aborts=%d tracking=%d realized=%d mispredicts=%d anomalies=%d (tol %.3g)\n",
			l.Decisions, l.Commits, l.Aborts, l.Tracking, l.Realized,
			l.Mispredicts, l.Anomalies, l.Tolerance)
		fmt.Fprintf(w, "  pred err: %s\n", quant(l.ErrSeries, ""))
		if last := l.Last; last != nil {
			verdict := "ok"
			switch {
			case last.NeverPaysOff:
				verdict = "never pays back"
			case !last.OK:
				verdict = "mispredict"
			}
			fmt.Fprintf(w, "  last realized: epoch=%d pred=%.4g realized=%.4g err=%.3g (%s)\n",
				last.Epoch, last.PredPayback, last.RealPayback, last.Err, verdict)
		}
		for _, s := range l.Shadow {
			fmt.Fprintf(w, "  shadow %-9s %d decisions agree=%d would-swap=%d would-stay=%d iters won=%.3g lost=%.3g\n",
				s.Policy+":", s.Decisions, s.Agreements, s.WouldSwap, s.WouldStay,
				s.ItersWon, s.ItersLost)
		}
	}
}
