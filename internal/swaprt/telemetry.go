package swaprt

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	clockpkg "repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/series"
	"repro/internal/swaprt/policylens"
)

// Ring capacities for the hub's windowed series. Iterations and decision
// latencies keep a longer window (quantiles want samples); probes and
// paybacks arrive once per handler interval / swap verdict.
const (
	telemetryIterWindow    = 128
	telemetryProbeWindow   = 64
	telemetryPaybackWindow = 64
)

// RankTelemetry is one rank's live telemetry snapshot: the windowed
// iteration-time distribution, the latest probe measurement, and the
// slowdown-detector state. It piggybacks on the swap handler's periodic
// ReportMsg (the wire format extends compatibly — old managers ignore
// it) and aggregates fleet-wide on the manager side.
type RankTelemetry struct {
	Rank     int              `json:"rank"`
	Now      float64          `json:"now"`   // hub clock at snapshot time
	Iters    int              `json:"iters"` // iterations observed so far
	IterTime series.Quantiles `json:"iter_time"`
	Rate     float64          `json:"rate,omitempty"` // latest probe measurement

	Anomalies   int             `json:"anomalies"` // slowdown detections so far
	LastAnomaly *series.Anomaly `json:"last_anomaly,omitempty"`
}

// DecisionTelemetry summarizes the leader's swap decisions: counts by
// outcome, the payback-distance distribution from DecideExplained, and
// decision latency quantiles.
type DecisionTelemetry struct {
	Count        int              `json:"count"`
	SwapVerdicts int              `json:"swap_verdicts"`
	Swaps        int              `json:"swaps"`  // directives committed
	Aborts       int              `json:"aborts"` // directives aborted by the two-phase protocol
	Payback      series.Quantiles `json:"payback"`
	Latency      series.Quantiles `json:"latency_s"`
	LastVerdict  string           `json:"last_verdict,omitempty"`
	LastReason   string           `json:"last_reason,omitempty"`
	LastPayback  float64          `json:"last_payback,omitempty"`
}

// CausalTelemetry reports the state of the Lamport causal clocks when
// the world runs with causal tracing armed.
type CausalTelemetry struct {
	Enabled  bool   `json:"enabled"`
	MaxClock uint64 `json:"max_clock"` // highest Lamport clock across ranks
	Sends    uint64 `json:"sends"`     // total causally-stamped sends
}

// FlightTelemetry reports the flight recorder's live state: how much of
// the bounded ring is populated, how many events it has seen in total,
// and the dump history.
type FlightTelemetry struct {
	Enabled  bool   `json:"enabled"`
	Buffered int    `json:"buffered"` // events currently held across rings
	Observed uint64 `json:"observed"` // total events ever observed
	Dumps    int    `json:"dumps"`    // dumps written so far
	LastDump string `json:"last_dump,omitempty"`
	Dir      string `json:"dir,omitempty"`
}

// TelemetryReport is the full /telemetry JSON document: per-rank
// snapshots (local observations merged over absorbed remote ones),
// decision telemetry, and the runtime control state (epoch, active set,
// quarantine, circuit breaker, causal clocks, flight recorder).
type TelemetryReport struct {
	Now         float64            `json:"now"`
	Epoch       uint64             `json:"epoch"`
	ActiveSet   []int              `json:"active_set,omitempty"`
	Quarantined []int              `json:"quarantined,omitempty"`
	Circuit     string             `json:"circuit,omitempty"` // resilient-decider breaker state
	Causal      *CausalTelemetry   `json:"causal,omitempty"`
	Flight      *FlightTelemetry   `json:"flight,omitempty"`
	Lens        *policylens.Report `json:"lens,omitempty"`
	Ranks       []RankTelemetry    `json:"ranks"`
	Decisions   DecisionTelemetry  `json:"decisions"`
}

// rankSeries is the hub's per-rank working state.
type rankSeries struct {
	iters     *series.Ring
	probes    *series.Ring
	det       *series.Detector
	iterCount int
	anomalies int
	last      *series.Anomaly
}

// TelemetryHub collects live runtime telemetry: windowed per-rank
// iteration times with rolling slowdown detection, probe rates, decision
// payback distances, and the control state a dashboard needs. All
// methods are nil-safe and, past construction, guarded by one atomic
// enabled load — a nil or disabled hub makes every observation a no-op,
// keeping the swap-point hot path at its untraced cost.
//
// The same type serves both sides of the report channel: the runtime
// observes locally and snapshots per-rank telemetry onto ReportMsg; the
// manager absorbs those snapshots into its own hub for the fleet view.
type TelemetryHub struct {
	enabled atomic.Bool

	mu          sync.Mutex
	clock       func() float64
	tr          *obs.Tracer
	ranks       map[int]*rankSeries
	absorbed    map[int]RankTelemetry
	activeSet   []int
	epoch       uint64
	quarantined map[int]bool
	circuit     func() string

	causal func() CausalTelemetry
	flight func() FlightTelemetry
	lens   func() policylens.Report

	decCount   int
	decSwapCnt int
	decSwaps   int
	decAborts  int
	paybacks   *series.Ring
	latencies  *series.Ring
	lastVerd   string
	lastReason string
	lastPay    float64
}

// NewTelemetryHub builds an enabled hub. clock reports seconds since
// application start (nil selects wall time from construction) and
// timestamps every series sample and report.
func NewTelemetryHub(clock func() float64) *TelemetryHub {
	if clock == nil {
		clock = clockpkg.Seconds(clockpkg.Real{})
	}
	h := &TelemetryHub{
		clock:       clock,
		ranks:       map[int]*rankSeries{},
		absorbed:    map[int]RankTelemetry{},
		quarantined: map[int]bool{},
		paybacks:    series.NewRing(telemetryPaybackWindow),
		latencies:   series.NewRing(telemetryIterWindow),
	}
	h.enabled.Store(true)
	return h
}

// SetEnabled flips the atomic guard; a disabled hub drops every
// observation and reports empty.
func (h *TelemetryHub) SetEnabled(on bool) {
	if h != nil {
		h.enabled.Store(on)
	}
}

// on reports whether observations should be recorded.
func (h *TelemetryHub) on() bool { return h != nil && h.enabled.Load() }

// AttachTracer routes anomaly detections into the trace stream.
func (h *TelemetryHub) AttachTracer(tr *obs.Tracer) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.tr = tr
	h.mu.Unlock()
}

// rank returns (creating if needed) the per-rank state; callers hold mu.
func (h *TelemetryHub) rank(r int) *rankSeries {
	rs := h.ranks[r]
	if rs == nil {
		rs = &rankSeries{
			iters:  series.NewRing(telemetryIterWindow),
			probes: series.NewRing(telemetryProbeWindow),
			det:    series.NewDetector(series.DefaultWindow),
		}
		h.ranks[r] = rs
	}
	return rs
}

// ObserveIteration records one completed iteration and runs the rolling
// slowdown detector; a detection is counted, kept as the rank's last
// anomaly, and emitted as a KindAnomaly trace event.
func (h *TelemetryHub) ObserveIteration(rank int, t, iterTime float64) {
	if !h.on() {
		return
	}
	h.mu.Lock()
	rs := h.rank(rank)
	rs.iterCount++
	rs.iters.Push(t, iterTime)
	an, hit := rs.det.Observe(t, iterTime)
	var tr *obs.Tracer
	if hit {
		rs.anomalies++
		a := an
		rs.last = &a
		tr = h.tr
	}
	h.mu.Unlock()
	if hit {
		tr.Emit(obs.Event{Kind: obs.KindAnomaly, Rank: rank, T: t,
			Value: an.Value, IterTime: an.Mean, Z: an.Z, Detail: "iter_time"})
	}
}

// ObserveProbe records one swap-handler probe measurement.
func (h *TelemetryHub) ObserveProbe(rank int, t, rate float64) {
	if !h.on() {
		return
	}
	h.mu.Lock()
	h.rank(rank).probes.Push(t, rate)
	h.mu.Unlock()
}

// ObserveDecision records one leader decision: verdict, payback distance
// (when the decider explained itself) and decide latency in seconds.
func (h *TelemetryHub) ObserveDecision(t float64, eval *core.Explanation, swaps int, latency float64) {
	if !h.on() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.decCount++
	h.latencies.Push(t, latency)
	if swaps > 0 {
		h.decSwapCnt++
	}
	if eval != nil {
		h.lastVerd, h.lastReason = eval.Verdict, eval.Reason
		if eval.Payback > 0 {
			h.lastPay = eval.Payback
			h.paybacks.Push(t, eval.Payback)
		}
	} else if swaps > 0 {
		h.lastVerd, h.lastReason = "swap", ""
	} else {
		h.lastVerd, h.lastReason = "stay", ""
	}
}

// ObserveSwap counts one committed swap directive.
func (h *TelemetryHub) ObserveSwap() {
	if !h.on() {
		return
	}
	h.mu.Lock()
	h.decSwaps++
	h.mu.Unlock()
}

// ObserveAbort counts one aborted swap directive.
func (h *TelemetryHub) ObserveAbort() {
	if !h.on() {
		return
	}
	h.mu.Lock()
	h.decAborts++
	h.mu.Unlock()
}

// ObserveQuarantine records a spare's quarantine.
func (h *TelemetryHub) ObserveQuarantine(rank int) {
	if !h.on() {
		return
	}
	h.mu.Lock()
	h.quarantined[rank] = true
	h.mu.Unlock()
}

// ObserveEpoch records the committed epoch and active set after a swap.
func (h *TelemetryHub) ObserveEpoch(epoch uint64, activeSet []int) {
	if !h.on() {
		return
	}
	h.mu.Lock()
	if epoch >= h.epoch {
		h.epoch = epoch
		h.activeSet = append(h.activeSet[:0], activeSet...)
	}
	h.mu.Unlock()
}

// SetCircuitProbe wires the resilient decider's breaker state into the
// report (fn returns "closed" or "open").
func (h *TelemetryHub) SetCircuitProbe(fn func() string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.circuit = fn
	h.mu.Unlock()
}

// SetCausalProbe wires the world's Lamport clock state into the report.
func (h *TelemetryHub) SetCausalProbe(fn func() CausalTelemetry) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.causal = fn
	h.mu.Unlock()
}

// SetFlightProbe wires the flight recorder's status into the report.
func (h *TelemetryHub) SetFlightProbe(fn func() FlightTelemetry) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.flight = fn
	h.mu.Unlock()
}

// SetLensProbe wires the policy lens report into the telemetry
// document, so /telemetry consumers (swapmon) see the audit scoreboard
// without a second fetch.
func (h *TelemetryHub) SetLensProbe(fn func() policylens.Report) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.lens = fn
	h.mu.Unlock()
}

// snapshotLocked renders rank r's current RankTelemetry; callers hold mu.
func (h *TelemetryHub) snapshotLocked(r int, now float64) RankTelemetry {
	rs := h.ranks[r]
	rt := RankTelemetry{Rank: r, Now: now}
	if rs == nil {
		return rt
	}
	rt.Iters = rs.iterCount
	rt.IterTime = series.Summarize(rs.iters.Values())
	if p, ok := rs.probes.Last(); ok {
		rt.Rate = p.V
	}
	rt.Anomalies = rs.anomalies
	if rs.last != nil {
		a := *rs.last
		rt.LastAnomaly = &a
	}
	return rt
}

// RankSnapshot returns the rank's current telemetry for piggybacking on
// a ReportMsg, or nil when the hub is off or has nothing for the rank.
func (h *TelemetryHub) RankSnapshot(rank int) *RankTelemetry {
	if !h.on() {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ranks[rank] == nil {
		return nil
	}
	rt := h.snapshotLocked(rank, h.clock())
	return &rt
}

// Absorb merges a remote rank snapshot (from a piggybacked ReportMsg)
// into the fleet view. Later snapshots of the same rank replace earlier
// ones; local observations for a rank take precedence in Report.
func (h *TelemetryHub) Absorb(rt *RankTelemetry) {
	if rt == nil || !h.on() {
		return
	}
	h.mu.Lock()
	h.absorbed[rt.Rank] = *rt
	h.mu.Unlock()
}

// Report renders the full telemetry document.
func (h *TelemetryHub) Report() TelemetryReport {
	if !h.on() {
		return TelemetryReport{Ranks: []RankTelemetry{}}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock()
	rep := TelemetryReport{
		Now:       now,
		Epoch:     h.epoch,
		ActiveSet: append([]int(nil), h.activeSet...),
		Ranks:     []RankTelemetry{},
		Decisions: DecisionTelemetry{
			Count:        h.decCount,
			SwapVerdicts: h.decSwapCnt,
			Swaps:        h.decSwaps,
			Aborts:       h.decAborts,
			Payback:      series.Summarize(h.paybacks.Values()),
			Latency:      series.Summarize(h.latencies.Values()),
			LastVerdict:  h.lastVerd,
			LastReason:   h.lastReason,
			LastPayback:  h.lastPay,
		},
	}
	for r := range h.quarantined {
		rep.Quarantined = append(rep.Quarantined, r)
	}
	sort.Ints(rep.Quarantined)
	if h.circuit != nil {
		rep.Circuit = h.circuit()
	}
	if h.causal != nil {
		c := h.causal()
		rep.Causal = &c
	}
	if h.flight != nil {
		f := h.flight()
		rep.Flight = &f
	}
	if h.lens != nil {
		l := h.lens()
		rep.Lens = &l
	}
	seen := map[int]bool{}
	for r := range h.ranks {
		rep.Ranks = append(rep.Ranks, h.snapshotLocked(r, now))
		seen[r] = true
	}
	for r, rt := range h.absorbed {
		if !seen[r] {
			rep.Ranks = append(rep.Ranks, rt)
		}
	}
	sort.Slice(rep.Ranks, func(i, j int) bool { return rep.Ranks[i].Rank < rep.Ranks[j].Rank })
	return rep
}

// TelemetryHandler serves the hub's report as JSON — mount it at
// /telemetry on a debug endpoint. A nil or disabled hub serves an empty
// report rather than erroring, so dashboards poll safely across enable
// toggles.
func TelemetryHandler(h *TelemetryHub) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if h == nil {
			_ = enc.Encode(TelemetryReport{Ranks: []RankTelemetry{}})
			return
		}
		_ = enc.Encode(h.Report())
	})
}
