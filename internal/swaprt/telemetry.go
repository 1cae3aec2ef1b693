package swaprt

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"

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
// ReportMsg and aggregates fleet-wide on the manager side.
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
// methods are nil-safe: a nil hub is the hub switched off, every
// observation a no-op, so the swap-point hot path pays one nil check.
//
// The same type serves both sides of the report channel: the runtime
// observes locally and snapshots per-rank telemetry onto ReportMsg; the
// manager absorbs those snapshots into its own hub for the fleet view.
type TelemetryHub struct {
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

// NewTelemetryHub builds a hub. clock reports seconds since
// application start (nil selects wall time from construction) and
// timestamps every series sample and report.
func NewTelemetryHub(clock func() float64) *TelemetryHub {
	if clock == nil {
		clock = clockpkg.Seconds(clockpkg.Real{})
	}
	return &TelemetryHub{
		clock:       clock,
		ranks:       map[int]*rankSeries{},
		absorbed:    map[int]RankTelemetry{},
		quarantined: map[int]bool{},
		paybacks:    series.NewRing(telemetryPaybackWindow),
		latencies:   series.NewRing(telemetryIterWindow),
	}
}

// locked runs f under the hub's lock; a nil hub runs nothing.
func (h *TelemetryHub) locked(f func()) {
	if h != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
		f()
	}
}

// AttachTracer routes anomaly detections into the trace stream.
func (h *TelemetryHub) AttachTracer(tr *obs.Tracer) { h.locked(func() { h.tr = tr }) }

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
	if h == nil {
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
	h.locked(func() { h.rank(rank).probes.Push(t, rate) })
}

// ObserveDecision records one leader decision: verdict, payback distance
// (when the decider explained itself) and decide latency in seconds.
func (h *TelemetryHub) ObserveDecision(t float64, eval *core.Explanation, swaps int, latency float64) {
	if h == nil {
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

// ObserveRound records a settled swap round from its SwapRecord: each
// committed directive is a swap, each aborted one an abort and the
// quarantine of its spare.
func (h *TelemetryHub) ObserveRound(rec obs.Event) {
	if rec.Round == nil {
		return
	}
	h.locked(func() {
		for _, p := range rec.Round.Pairs {
			if p.Committed {
				h.decSwaps++
				continue
			}
			h.decAborts++
			h.quarantined[p.In] = true
		}
	})
}

// ObserveEpoch records the committed epoch and active set after a swap.
func (h *TelemetryHub) ObserveEpoch(epoch uint64, activeSet []int) {
	h.locked(func() {
		if epoch >= h.epoch {
			h.epoch, h.activeSet = epoch, append(h.activeSet[:0], activeSet...)
		}
	})
}

// SetCircuitProbe wires the resilient decider's breaker state into the
// report (fn returns "closed" or "open").
func (h *TelemetryHub) SetCircuitProbe(fn func() string) { h.locked(func() { h.circuit = fn }) }

// SetCausalProbe wires the world's Lamport clock state into the report.
func (h *TelemetryHub) SetCausalProbe(fn func() CausalTelemetry) { h.locked(func() { h.causal = fn }) }

// SetFlightProbe wires the flight recorder's status into the report.
func (h *TelemetryHub) SetFlightProbe(fn func() FlightTelemetry) { h.locked(func() { h.flight = fn }) }

// SetLensProbe wires the policy lens report into the telemetry
// document, so /telemetry consumers (swapmon) see the audit scoreboard
// without a second fetch.
func (h *TelemetryHub) SetLensProbe(fn func() policylens.Report) { h.locked(func() { h.lens = fn }) }

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
	if h == nil {
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
	if rt != nil {
		h.locked(func() { h.absorbed[rt.Rank] = *rt })
	}
}

// Report renders the full telemetry document.
func (h *TelemetryHub) Report() TelemetryReport {
	if h == nil {
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
// /telemetry on a debug endpoint. A nil hub serves an empty report rather
// than erroring, so a dashboard can poll a run that keeps no telemetry.
func TelemetryHandler(h *TelemetryHub) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(h.Report())
	})
}
