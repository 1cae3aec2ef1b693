package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/obs/series"
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

// roundStat is one swap-point round across the then-active ranks.
type roundStat struct {
	t         float64 // the round's decision timestamp
	n         int     // ranks reporting an iteration
	min, max  float64
	mean      float64
	imbalance float64 // max/mean, 1 = perfectly balanced
}

// swapAttribution is one committed-or-attempted swap decision matched
// with the state-transfer cost it actually incurred.
type swapAttribution struct {
	t          float64
	directives int
	payback    float64
	predicted  float64 // SwapTime * directives (the payback algebra's cost)
	actual     float64 // sum of outbound StateTransfer durations until next decision
	bytes      int64
}

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
	rounds     []roundStat
	swaps      []swapAttribution
	decideDur  []float64 // seconds per decision
	anomalies  []AnomalyWindow
	recorded   int // KindAnomaly events present in the trace itself
	circuit    map[string]int

	hasCausal bool        // trace carries MsgSend/MsgRecv events
	causal    CausalCheck // validations over the happens-before evidence
	path      CausalPath  // message-edge critical path
}

// Analyze digests a (time-sorted) event stream.
func Analyze(events []Event) *Analysis {
	a := &Analysis{
		counts:     map[Kind]int{},
		iterByRank: map[int][]float64{},
		circuit:    map[string]int{},
	}
	a.Events = len(events)
	ranks := map[int]bool{}

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
		case KindSwapDecision:
			decisions = append(decisions, ev)
			a.decideDur = append(a.decideDur, ev.Dur)
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
			rs := roundStat{t: dec.T, n: len(vals), min: vals[0], max: vals[0]}
			sum := 0.0
			for _, v := range vals {
				if v < rs.min {
					rs.min = v
				}
				if v > rs.max {
					rs.max = v
				}
				sum += v
			}
			rs.mean = sum / float64(len(vals))
			if rs.mean > 0 {
				rs.imbalance = rs.max / rs.mean
			}
			a.rounds = append(a.rounds, rs)
		}
		prev = dec.T
	}

	// Swap-cost attribution: each swap-verdict decision owns the outbound
	// state transfers that complete before the next decision.
	for i, dec := range decisions {
		if dec.Verdict != "swap" && dec.Swaps == 0 {
			continue
		}
		next := math.Inf(1)
		if i+1 < len(decisions) {
			next = decisions[i+1].T
		}
		att := swapAttribution{
			t: dec.T, directives: dec.Swaps,
			payback:   dec.Payback,
			predicted: dec.SwapTime * float64(dec.Swaps),
		}
		for _, ev := range events {
			if ev.Kind == KindStateTransfer && ev.Detail == "out" && ev.T >= dec.T && ev.T < next {
				att.actual += ev.Dur
				att.bytes += ev.Bytes
			}
		}
		a.swaps = append(a.swaps, att)
	}

	// Anomaly windows: replay the telemetry detector over each rank's
	// iteration series (same defaults as the live hub), merging runs of
	// anomalies separated by at most two normal samples.
	for _, r := range a.Ranks {
		vals := a.iterByRank[r]
		if len(vals) == 0 {
			continue
		}
		times := iterTimes(events, r)
		det := series.NewDetector(series.DefaultWindow)
		var cur *AnomalyWindow
		lastAnomIdx := -10
		for i, v := range vals {
			t := 0.0
			if i < len(times) {
				t = times[i]
			}
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

// iterTimes returns rank r's IterEnd timestamps in trace order.
func iterTimes(events []Event, r int) []float64 {
	var out []float64
	for _, ev := range events {
		if ev.Kind == KindIterEnd && ev.Rank == r {
			out = append(out, ev.T)
		}
	}
	return out
}

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
	fmt.Fprintf(bw, "trace analysis: %d events, %d ranks, span %.6gs\n", a.Events, len(a.Ranks), a.Span)

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
	if len(a.rounds) == 0 {
		fmt.Fprintf(bw, "no rounds (trace has no decisions)\n")
	} else {
		var critical, ideal float64
		var imb []float64
		for _, rs := range a.rounds {
			critical += rs.max
			ideal += rs.mean
			imb = append(imb, rs.imbalance)
		}
		fmt.Fprintf(bw, "rounds=%d critical_path=%.6gs ideal_balanced=%.6gs stretch=%.4g\n",
			len(a.rounds), critical, ideal, safeDiv(critical, ideal))
		fmt.Fprintf(bw, "imbalance (max/mean per round): %s\n", quantline(imb, "%.4g"))
	}

	fmt.Fprintf(bw, "\n== swap overhead attribution (payback algebra) ==\n")
	if len(a.swaps) == 0 {
		fmt.Fprintf(bw, "no swap decisions\n")
	} else {
		var pred, act float64
		var bytes int64
		for _, s := range a.swaps {
			fmt.Fprintf(bw, "t=%.6g directives=%d payback=%.6g predicted=%.6gs actual=%.6gs bytes=%d\n",
				s.t, s.directives, s.payback, s.predicted, s.actual, s.bytes)
			pred += s.predicted
			act += s.actual
			bytes += s.bytes
		}
		fmt.Fprintf(bw, "total: predicted=%.6gs actual=%.6gs ratio=%.4g bytes=%d\n",
			pred, act, safeDiv(act, pred), bytes)
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
