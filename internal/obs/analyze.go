package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs/series"
	"repro/internal/stats"
)

// KindByName resolves a symbolic kind name ("SwapDecision") back to its
// Kind, inverting the JSONL encoding.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n != "" && n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// ReadJSONL parses an event log written by WriteJSONL back into events.
// Unknown kind names and malformed lines are errors: the log is a
// machine interface, and a silently skipped line would corrupt every
// statistic computed from it.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal([]byte(line), &je); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", lineNo, err)
		}
		k, ok := KindByName(je.KindName)
		if !ok {
			return nil, fmt.Errorf("obs: jsonl line %d: unknown event kind %q", lineNo, je.KindName)
		}
		ev := je.Event
		ev.Kind = k
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read jsonl: %w", err)
	}
	sortEvents(out)
	return out, nil
}

// CheckTimeline verifies that a trace was written on one clock. Per
// rank, the iteration times the runtime measured (IterEnd values) must
// fit between the rank's first and last event, give or take one
// iteration; and what the policy lens and the telemetry hub emit beside
// the ranks (ShadowDecision, PaybackRealized, Anomaly) must fall inside
// the span the rank events cover. A tracer on the wall clock under a
// runtime on an accelerated one fails both.
func CheckTimeline(events []Event) error {
	type rankSpan struct{ first, last, iterSum, iterMax float64 }
	spans := map[int]*rankSpan{}
	first, last := math.Inf(1), math.Inf(-1)
	for _, ev := range events {
		if ev.Rank < 0 {
			continue
		}
		sp := spans[ev.Rank]
		if sp == nil {
			sp = &rankSpan{first: ev.T, last: ev.T}
			spans[ev.Rank] = sp
		}
		sp.first, sp.last = math.Min(sp.first, ev.T), math.Max(sp.last, ev.T+ev.Dur)
		if ev.Kind == KindIterEnd {
			sp.iterSum += ev.Value
			sp.iterMax = math.Max(sp.iterMax, ev.Value)
		}
		first, last = math.Min(first, sp.first), math.Max(last, sp.last)
	}
	for rank, sp := range spans {
		if sp.iterSum > sp.last-sp.first+sp.iterMax {
			return fmt.Errorf("obs: rank %d measured %.6gs of iterations but its events span only %.6gs: two clocks in one trace",
				rank, sp.iterSum, sp.last-sp.first)
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case KindShadowDecision, KindPaybackRealized, KindAnomaly:
			if ev.Rank < 0 && len(spans) > 0 && (ev.T < first || ev.T > last) {
				return fmt.Errorf("obs: %s at t=%.6g lies outside the rank events' span [%.6g, %.6g]: two clocks in one trace",
					ev.Kind, ev.T, first, last)
			}
		}
	}
	return nil
}

// AnomalyWindow is one contiguous run of detected slowdown anomalies on
// a rank, produced by replaying the telemetry detector over the trace's
// iteration times — so simulated and live traces yield comparable
// anomaly reports regardless of whether a live hub recorded them.
type AnomalyWindow struct {
	Rank    int
	Start   float64 // first anomalous sample time
	End     float64 // last anomalous sample time
	Samples int     // anomalous samples inside the window
	MaxZ    float64
	Peak    float64 // worst iteration time in the window
}

// predicted is the swap time a record's decision predicted for its round:
// SwapTime per directive, or SwapTime for a relocation, which moves every
// process and orders no directive.
func predicted(rec Event) float64 { return rec.SwapTime * float64(max(rec.Swaps, 1)) }

// Analysis is the deterministic offline digest of one event trace: the
// machinery behind `tracecheck -analyze`. All numbers derive purely from
// the events (no wall clock, no randomness), so a fixed trace always
// produces a byte-identical report.
type Analysis struct {
	Events int
	Span   float64 // end of the last rank event (lens and hub events do not extend it)
	Ranks  []int   // world ranks seen, sorted

	counts     map[Kind]int
	iterByRank map[int][]float64 // IterEnd values per rank, trace order
	iterAt     map[int][]float64 // and their times
	// Swap-point rounds: the slowest and the mean iteration summed over
	// the rounds, and each round's max/mean (1 = perfectly balanced).
	critical, ideal float64
	imbalance       []float64
	records         []Event // SwapRecords, trace order
	// A committed round's epoch joins its outbound transfers (seconds,
	// bytes) and the lens's realization of its payback.
	transferDur   map[uint64]float64
	transferBytes map[uint64]int64
	realized      map[uint64]Event
	decideDur     []float64 // seconds per decision
	anomalies     []AnomalyWindow
	recorded      int // KindAnomaly events present in the trace itself
	circuit       map[string]int

	hasCausal bool        // trace carries MsgSend/MsgRecv events
	causal    CausalCheck // validations over the happens-before evidence
	path      CausalPath  // message-edge critical path
}

// Analyze digests a (time-sorted) event stream.
func Analyze(events []Event) *Analysis {
	a := &Analysis{
		counts:     map[Kind]int{},
		iterByRank: map[int][]float64{},
		iterAt:     map[int][]float64{},
		circuit:    map[string]int{},
	}
	a.Events = len(events)
	ranks := map[int]bool{}

	a.transferDur, a.transferBytes, a.realized = map[uint64]float64{}, map[uint64]int64{}, map[uint64]Event{}
	var decisions []Event
	for _, ev := range events {
		a.counts[ev.Kind]++
		if ev.Rank >= 0 {
			ranks[ev.Rank] = true
			a.Span = math.Max(a.Span, ev.T+ev.Dur)
		}
		switch ev.Kind {
		case KindIterEnd:
			a.iterByRank[ev.Rank] = append(a.iterByRank[ev.Rank], ev.Value)
			a.iterAt[ev.Rank] = append(a.iterAt[ev.Rank], ev.T)
		case KindSwapDecision:
			decisions = append(decisions, ev)
			a.decideDur = append(a.decideDur, ev.Dur)
		case KindSwapRecord:
			a.records = append(a.records, ev)
		case KindStateTransfer:
			if ev.Detail != "in" {
				a.transferDur[ev.Epoch] += ev.Dur
				a.transferBytes[ev.Epoch] += ev.Bytes
			}
		case KindPaybackRealized:
			a.realized[ev.Epoch] = ev
		case KindAnomaly:
			a.recorded++
		case KindCircuit:
			a.circuit[ev.Detail]++
		}
	}
	for r := range ranks {
		a.Ranks = append(a.Ranks, r)
	}
	sort.Ints(a.Ranks)

	// Swap-point rounds: the IterEnd events between consecutive decisions
	// are the iterations that round measured (every active rank reports
	// exactly one before the leader decides).
	prev := -1.0 // exclusive lower bound
	for _, dec := range decisions {
		var vals []float64
		for _, ev := range events {
			if ev.Kind == KindIterEnd && ev.T > prev && ev.T <= dec.T {
				vals = append(vals, ev.Value)
			}
		}
		if len(vals) > 0 {
			slowest, mean := slices.Max(vals), stats.Mean(vals)
			a.critical += slowest
			a.ideal += mean
			a.imbalance = append(a.imbalance, safeDiv(slowest, mean))
		}
		prev = dec.T
	}

	// Anomaly windows: replay the telemetry detector over each rank's
	// iteration series (same defaults as the live hub), merging runs of
	// anomalies separated by at most two normal samples.
	for _, r := range a.Ranks {
		det := series.NewDetector(series.DefaultWindow)
		var cur *AnomalyWindow
		lastAnomIdx := -10
		for i, v := range a.iterByRank[r] {
			t := a.iterAt[r][i]
			an, ok := det.Observe(t, v)
			if !ok {
				continue
			}
			if cur != nil && i-lastAnomIdx <= 3 {
				cur.End = t
				cur.Samples++
				if an.Z > cur.MaxZ {
					cur.MaxZ = an.Z
				}
				if v > cur.Peak {
					cur.Peak = v
				}
			} else {
				if cur != nil {
					a.anomalies = append(a.anomalies, *cur)
				}
				cur = &AnomalyWindow{Rank: r, Start: t, End: t, Samples: 1, MaxZ: an.Z, Peak: v}
			}
			lastAnomIdx = i
		}
		if cur != nil {
			a.anomalies = append(a.anomalies, *cur)
		}
	}
	sort.SliceStable(a.anomalies, func(i, j int) bool {
		if a.anomalies[i].Start != a.anomalies[j].Start {
			return a.anomalies[i].Start < a.anomalies[j].Start
		}
		return a.anomalies[i].Rank < a.anomalies[j].Rank
	})

	// Causal upgrade: when the trace carries message edges, validate them
	// and walk the real happens-before DAG for the critical path (the
	// rounds-based numbers above stay as the heuristic comparison).
	if a.counts[KindMsgSend]+a.counts[KindMsgRecv] > 0 {
		a.hasCausal = true
		a.causal = CheckCausality(events)
		a.path = CausalCriticalPath(events)
	}
	return a
}

// Causality exposes the causal validation result (zero-valued when the
// trace has no message edges; the bool reports presence).
func (a *Analysis) Causality() (CausalCheck, bool) { return a.causal, a.hasCausal }

// AnomalyWindows exposes the detected windows (for tests and the live
// smoke checks).
func (a *Analysis) AnomalyWindows() []AnomalyWindow { return a.anomalies }

// quantline renders a quantile summary of xs with the given value format.
func quantline(xs []float64, format string) string {
	if len(xs) == 0 {
		return "n=0"
	}
	q := series.Summarize(xs)
	f := func(v float64) string { return fmt.Sprintf(format, v) }
	return fmt.Sprintf("n=%d mean=%s p50=%s p90=%s p99=%s max=%s",
		q.N, f(q.Mean), f(q.P50), f(q.P90), f(q.P99), f(q.Max))
}

// WriteReport renders the full deterministic analysis report.
func (a *Analysis) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	records := a.counts[KindSwapRecord]
	fmt.Fprintf(bw, "trace analysis: %d events + %d swap records, %d ranks, span %.6gs\n",
		a.Events-records, records, len(a.Ranks), a.Span)

	fmt.Fprintf(bw, "\n== event counts ==\n")
	for k := Kind(1); int(k) < len(kindNames); k++ {
		if n := a.counts[k]; n > 0 {
			fmt.Fprintf(bw, "%-14s %d\n", k.String(), n)
		}
	}

	fmt.Fprintf(bw, "\n== iteration times per rank (s) ==\n")
	for _, r := range a.Ranks {
		if vals := a.iterByRank[r]; len(vals) > 0 {
			total := 0.0
			for _, v := range vals {
				total += v
			}
			fmt.Fprintf(bw, "rank %-3d %s total=%.6g\n", r, quantline(vals, "%.6g"), total)
		}
	}

	fmt.Fprintf(bw, "\n== swap-point rounds (critical path / imbalance) ==\n")
	if len(a.imbalance) == 0 {
		fmt.Fprintf(bw, "no rounds (trace has no decisions)\n")
	} else {
		fmt.Fprintf(bw, "rounds=%d critical_path=%.6gs ideal_balanced=%.6gs stretch=%.4g\n",
			len(a.imbalance), a.critical, a.ideal, safeDiv(a.critical, a.ideal))
		fmt.Fprintf(bw, "imbalance (max/mean per round): %s\n", quantline(a.imbalance, "%.4g"))
	}

	fmt.Fprintf(bw, "\n== swap overhead attribution (payback algebra) ==\n")
	if len(a.records) == 0 {
		fmt.Fprintf(bw, "no swap records\n")
	} else {
		var pred, paid, act float64
		var bytes int64
		var phases [7][]float64
		for _, rec := range a.records {
			// The record states the prediction and the paid time. Only a
			// committed round owns its epoch's transfers and realization:
			// an aborted one moved no acknowledged state, and a later
			// round may commit the epoch it proposed.
			actual, moved, realized, outcome := 0.0, int64(0), "-", " aborted"
			if rec.Verdict == VerdictCommit {
				actual, moved, outcome = a.transferDur[rec.Epoch], a.transferBytes[rec.Epoch], ""
				if r, ok := a.realized[rec.Epoch]; ok {
					realized = fmt.Sprintf("%.6g(%s)", r.Payback, r.Verdict)
				}
			}
			fmt.Fprintf(bw, "t=%.6g directives=%d payback=%.6g predicted=%.6gs paid=%.6gs actual=%.6gs bytes=%d realized=%s%s\n",
				rec.T, rec.Swaps, rec.Payback, predicted(rec), rec.Dur, actual, moved, realized, outcome)
			pred += predicted(rec)
			paid += rec.Dur
			act += actual
			bytes += moved
			if r := rec.Round; r != nil {
				p := r.Phases
				for i, v := range [...]float64{p.Gather, p.Decide, p.Plan, p.Transfer, p.Vote, p.Commit, p.Rebuild} {
					phases[i] = append(phases[i], v)
				}
			}
		}
		fmt.Fprintf(bw, "total: predicted=%.6gs paid=%.6gs actual=%.6gs ratio=%.4g bytes=%d\n",
			pred, paid, act, safeDiv(act, pred), bytes)
		fmt.Fprintf(bw, "phases (median s):")
		for i, name := range [...]string{"gather", "decide", "plan", "transfer", "vote", "commit", "rebuild"} {
			fmt.Fprintf(bw, " %s=%.6g", name, series.Summarize(phases[i]).P50)
		}
		fmt.Fprintf(bw, "\n")
	}

	if a.hasCausal {
		fmt.Fprintf(bw, "\n== causal messaging (happens-before) ==\n")
		fmt.Fprintf(bw, "sends=%d recvs=%d matched_edges=%d truncated=%d max_clock=%d\n",
			a.causal.Sends, a.causal.Recvs, a.causal.Matched, a.causal.Truncated, a.causal.MaxClock)
		fmt.Fprintf(bw, "message-edge critical path: critical=%.6gs ideal=%.6gs stretch=%.4g (edges=%d)\n",
			a.path.Critical, a.path.Ideal, a.path.Stretch, a.path.Edges)
		if a.causal.Ok() {
			fmt.Fprintf(bw, "causality validations: ok\n")
		} else {
			fmt.Fprintf(bw, "causality validations: %d violations\n", len(a.causal.Violations))
			for _, v := range a.causal.Violations {
				fmt.Fprintf(bw, "  VIOLATION: %s\n", v)
			}
		}
	}

	fmt.Fprintf(bw, "\n== decision latency (s) ==\n")
	fmt.Fprintf(bw, "%s\n", quantline(a.decideDur, "%.3g"))

	fmt.Fprintf(bw, "\n== anomaly windows (detector replay: window=%d z>=%g factor>=%g) ==\n",
		series.DefaultWindow, float64(series.DefaultZ), series.DefaultMinFactor)
	if len(a.anomalies) == 0 {
		fmt.Fprintf(bw, "none detected\n")
	} else {
		for _, an := range a.anomalies {
			fmt.Fprintf(bw, "rank %-3d [%.6g, %.6g] samples=%d max_z=%.4g peak=%.6gs\n",
				an.Rank, an.Start, an.End, an.Samples, an.MaxZ, an.Peak)
		}
	}
	if a.recorded > 0 {
		fmt.Fprintf(bw, "recorded Anomaly events in trace: %d\n", a.recorded)
	}

	if a.counts[KindSwapAbort]+a.counts[KindQuarantine]+len(a.circuit)+a.counts[KindFaultInject] > 0 {
		fmt.Fprintf(bw, "\n== faults & resilience ==\n")
		fmt.Fprintf(bw, "aborts=%d quarantines=%d faults_injected=%d\n",
			a.counts[KindSwapAbort], a.counts[KindQuarantine], a.counts[KindFaultInject])
		var keys []string
		for k := range a.circuit {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(bw, "circuit %s: %d\n", k, a.circuit[k])
		}
	}
	return bw.Flush()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
