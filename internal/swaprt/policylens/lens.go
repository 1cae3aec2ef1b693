// Package policylens is the online audit layer over the paper's swap
// decisions: where internal/obs watches the *mechanics* of a run
// (events, latencies, crashes), the lens watches whether the decisions
// were *right*.
//
// It does two things, both fed by the Boundary that decides:
//
//   - Payback realization. Every committed swap carries a predicted
//     payback distance and, implicitly, a predicted post-swap iteration
//     time (oldIter · oldPerf/newPerf under the paper's process-level
//     model). The lens watches the subsequent iteration telemetry,
//     computes the realized payback — swapTime divided by the measured
//     per-iteration saving — and scores the prediction error against a
//     fixed tolerance. A drifting stateSizeEstimate or swapTime
//     model shows up as a rising error series, which the lens feeds
//     through the obs/series slowdown Detector so model drift raises a
//     typed KindAnomaly ("payback_error") instead of silently degrading
//     decisions.
//
//   - Shadow policies. The paper's three policies (greedy, safe,
//     friendly) are replayed as a counterfactual over the same
//     DecideInput the primary decided on — same candidates, same
//     estimated rates, same iteration and swap times — isolating the
//     policies' threshold choices from history effects. A per-policy
//     regret scoreboard counts where the shadow would have diverged and
//     estimates the iterations won or lost: a pair with fractional
//     saving s = 1 − oldPerf/newPerf and payback p, held for a horizon
//     of H = 50 further iterations, wins s·(H − p) iterations (negative
//     when the swap would not have amortized within the horizon).
//
// Like the TelemetryHub, the Lens is nil-safe: a nil lens is the lens
// switched off, every observation a no-op, keeping the swap-point hot
// path at its unaudited cost. Timestamps are supplied by
// callers (wall seconds live, virtual seconds under the simulator), so
// the same lens produces byte-identical event streams from simulated
// runs.
package policylens

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/series"
)

// The lens's judgement. One value each, read alike by the live lens and
// by Audit replaying its trace, so the two cannot disagree.
const (
	// tolerance is the relative payback prediction error above which a
	// realization counts as a misprediction.
	tolerance = 0.5
	// realizeAfter is how many post-commit iteration samples the lens
	// collects before scoring a prediction.
	realizeAfter = 4
	// horizon is the regret horizon in iterations for the shadow
	// scoreboard's won/lost estimates.
	horizon = 50.0
	// errCap bounds the relative error recorded in events, histograms
	// and the drift detector, so a never-paying swap (realized payback
	// infinite) stays finite in every JSON encoding.
	errCap = 10.0
	// maxOpen bounds the concurrently tracked predictions; beyond it the
	// oldest is dropped (a pathological run swapping faster than it
	// realizes must not grow without bound).
	maxOpen = 16
	// errWindow is the ring capacity of the prediction-error series.
	errWindow = 64
)

// Config wires a Lens to its run.
type Config struct {
	// Tracer receives KindPaybackRealized, KindShadowDecision and
	// payback_error KindAnomaly events. Nil records nothing.
	Tracer *obs.Tracer
	// Registry receives the lens.* counters and the prediction-error
	// histogram; nil keeps a private registry.
	Registry *obs.Registry
	// Clock reports seconds since application start for Report
	// timestamps only (every observation carries its own timestamp).
	// Nil reports the latest observed timestamp, which keeps simulated
	// reports deterministic.
	Clock func() float64
}

// prediction is one committed (or proposed) swap awaiting realization.
type prediction struct {
	epoch       uint64  // the epoch the swap establishes (proposal epoch)
	oldIter     float64 // pre-swap iteration time (s)
	predIter    float64 // predicted post-swap iteration time (s)
	predPayback float64 // predicted payback distance (iterations)
	swapTime    float64 // predicted swap cost (s)
	oldPerf     float64 // decisive pair's active rate
	newPerf     float64 // decisive pair's spare rate
	samples     []float64
}

// PolicyScore is one shadow policy's scoreboard row.
type PolicyScore struct {
	Policy     string  `json:"policy"`
	Decisions  int     `json:"decisions"`
	Agreements int     `json:"agreements"`
	WouldSwap  int     `json:"would_swap"` // shadow swaps where the primary stayed
	WouldStay  int     `json:"would_stay"` // shadow stays where the primary swapped
	ItersWon   float64 `json:"est_iters_won"`
	ItersLost  float64 `json:"est_iters_lost"`
}

// shadowEntry pairs a policy with its running score.
type shadowEntry struct {
	pol   core.Policy
	score PolicyScore
}

// Realization records one scored prediction for reports.
type Realization struct {
	Epoch        uint64  `json:"epoch"`
	T            float64 `json:"t"`
	PredPayback  float64 `json:"pred_payback"`
	RealPayback  float64 `json:"realized_payback"` // 0 when the swap never pays back
	PredIter     float64 `json:"pred_iter_time"`
	RealIter     float64 `json:"realized_iter_time"`
	Err          float64 `json:"err"` // relative payback error, capped
	OK           bool    `json:"ok"`  // within tolerance
	NeverPaysOff bool    `json:"never_pays_off,omitempty"`
}

// Report is the /policy JSON document.
type Report struct {
	Enabled   bool    `json:"enabled"`
	Now       float64 `json:"now"`
	Tolerance float64 `json:"tolerance"`

	Decisions int `json:"decisions"` // primary decisions observed
	Commits   int `json:"commits"`   // committed swap rounds
	Aborts    int `json:"aborts"`    // proposed rounds that fully aborted
	Tracking  int `json:"tracking"`  // predictions awaiting realization

	Realized    int              `json:"realized"`
	Mispredicts int              `json:"mispredicts"`
	ErrSeries   series.Quantiles `json:"prediction_error"`
	Anomalies   int              `json:"anomalies"` // drift detections on the error series
	Last        *Realization     `json:"last_realized,omitempty"`

	Shadow []PolicyScore `json:"shadow"`
}

// ShadowDecisions sums the shadow panel's replayed decisions.
func (r Report) ShadowDecisions() int {
	n := 0
	for _, s := range r.Shadow {
		n += s.Decisions
	}
	return n
}

// MispredictFraction reports mispredicts/realized (0 before the first
// realization).
func (r Report) MispredictFraction() float64 {
	if r.Realized == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Realized)
}

// Decision is one primary decision handed to the lens: the input the
// primary decided on, when, and what it concluded.
type Decision struct {
	T     float64           // decision timestamp (seconds since start)
	Epoch uint64            // epoch the decision was made in (pre-swap)
	Input core.DecideInput  // the exact input shadow policies replay
	Eval  *core.Explanation // primary verdict explanation (nil = unexplained)
	Swaps int               // directives the primary ordered
}

// Boundary is the decision at an iteration boundary, owned alike by the
// simulator's driver and the live LocalDecider: the policy decides on the
// caller's estimates, and Lens (nil-safe) audits exactly that input. Its
// owner serializes its calls.
type Boundary struct {
	Policy core.Policy
	Lens   *Lens

	ordered []core.Candidate // the candidates in decision order
}

// Decide feeds the iteration time to the lens's tracked predictions,
// orders in once (its slices are only read), decides on it — with the
// Reason sentence when explain is set — and hands the lens that ordered
// input with the verdict. A nil lens costs one nil check.
func (b *Boundary) Decide(t float64, epoch uint64, in core.DecideInput, explain bool) ([]core.SwapPair, core.Explanation) {
	audit := b.Lens.Enabled()
	if audit {
		b.Lens.ObserveIteration(t, in.IterTime)
	}
	in = in.Ordered(&b.ordered)
	decide := core.Policy.DecideQuiet
	if explain {
		decide = core.Policy.DecideExplained
	}
	pairs, exp := decide(b.Policy, in)
	if audit {
		b.Lens.ObserveDecision(Decision{T: t, Epoch: epoch, Input: in, Eval: &exp, Swaps: len(pairs)})
	}
	return pairs, exp
}

// Record audits swaps picked by a rule other than the policy's pairing
// (the simulator's random-selection ablation): no verdict to explain.
func (b *Boundary) Record(t float64, epoch uint64, in core.DecideInput, swaps int) {
	if b.Lens.Enabled() {
		b.Lens.ObserveIteration(t, in.IterTime)
		b.Lens.ObserveDecision(Decision{T: t, Epoch: epoch, Input: in, Swaps: swaps})
	}
}

// lensCounters are the registry handles ("lens.*").
type lensCounters struct {
	decisions   *obs.Counter
	commits     *obs.Counter
	aborts      *obs.Counter
	realized    *obs.Counter
	mispredicts *obs.Counter
	shadowEvals *obs.Counter
	divergences *obs.Counter
	errHist     *obs.LockedHistogram
}

// Lens is the online policy auditor. All methods are nil-safe; a nil
// lens drops every observation.
type Lens struct {
	mu  sync.Mutex
	cfg Config
	c   lensCounters

	tracking []*prediction // committed, collecting samples (FIFO)
	proposed *prediction   // decided but not yet committed/aborted

	decisions, commits, aborts int
	realizedN, mispredicts     int
	lastReal                   *Realization
	errs                       *series.Ring
	det                        *series.Detector
	anomalies                  int
	lastT                      float64

	shadow []*shadowEntry
	cands  []core.Candidate // ObserveDecision's ordered copy of its input
}

// New builds a lens.
func New(cfg Config) *Lens {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := &Lens{
		cfg: cfg,
		c: lensCounters{
			decisions:   reg.Counter("lens.decisions"),
			commits:     reg.Counter("lens.commits"),
			aborts:      reg.Counter("lens.aborts"),
			realized:    reg.Counter("lens.realized"),
			mispredicts: reg.Counter("lens.mispredicts"),
			shadowEvals: reg.Counter("lens.shadow_evals"),
			divergences: reg.Counter("lens.shadow_divergences"),
			errHist:     reg.Histogram("lens.prediction_error", 0, errCap, 20),
		},
		errs: series.NewRing(errWindow),
		det:  series.NewDetector(series.DefaultWindow),
	}
	for _, p := range []core.Policy{core.Greedy(), core.Safe(), core.Friendly()} {
		l.shadow = append(l.shadow, &shadowEntry{pol: p, score: PolicyScore{Policy: p.Name}})
	}
	return l
}

// Enabled reports whether the lens is recording — whether it is not nil;
// callers use it to skip building observation payloads on the hot path.
func (l *Lens) Enabled() bool { return l != nil }

// ObserveDecision records one primary decision, replays the shadow
// panel over the same input, and — when the primary ordered swaps —
// arms a payback prediction for the proposed epoch (activated by
// ObserveOutcome).
func (l *Lens) ObserveDecision(d Decision) {
	if !l.Enabled() {
		return
	}
	l.mu.Lock()
	l.decisions++
	l.c.decisions.Inc()
	if d.T > l.lastT {
		l.lastT = d.T
	}
	// One event per shadow when traced; the panel's three fit on the
	// stack.
	var panel [3]obs.Event
	events := panel[:0]
	primarySwap := d.Swaps > 0
	// With no tracer attached the shadows decide without formatting the
	// Reason the events carry; all walk one ordered view (a Boundary's
	// input is ordered already). The calls are direct: through a func
	// value d would escape, and a Boundary's Eval with it.
	traced := l.cfg.Tracer.Enabled()
	in := d.Input.Ordered(&l.cands)
	for _, sh := range l.shadow {
		var pairs []core.SwapPair
		var exp core.Explanation
		if traced {
			pairs, exp = sh.pol.DecideExplained(in)
		} else {
			pairs, exp = sh.pol.DecideQuiet(in)
		}
		shadowSwap := len(pairs) > 0
		sh.score.Decisions++
		l.c.shadowEvals.Inc()
		delta := 0.0
		switch {
		case shadowSwap == primarySwap:
			sh.score.Agreements++
		case shadowSwap: // shadow swaps, primary stayed
			sh.score.WouldSwap++
			l.c.divergences.Inc()
			delta = l.regretLocked(exp.OldPerf, exp.NewPerf, exp.Payback)
		default: // shadow stays, primary swapped
			sh.score.WouldStay++
			l.c.divergences.Inc()
			if e := d.Eval; e != nil {
				// Staying forgoes the primary's estimated gain.
				delta = -l.regretLocked(e.OldPerf, e.NewPerf, e.Payback)
			}
		}
		if delta > 0 {
			sh.score.ItersWon += delta
		} else {
			sh.score.ItersLost -= delta
		}
		if traced {
			tag := "agree"
			if shadowSwap != primarySwap {
				tag = "diverge"
			}
			events = append(events, obs.Event{
				Kind: obs.KindShadowDecision, Rank: obs.RankRuntime, T: d.T,
				Epoch: d.Epoch, IterTime: d.Input.IterTime, SwapTime: d.Input.SwapTime,
				OldPerf: exp.OldPerf, NewPerf: exp.NewPerf, Payback: finiteOr(exp.Payback, 0),
				Swaps: len(pairs), Value: delta,
				Verdict: exp.Verdict, Reason: tag + ": " + exp.Reason,
				Detail: sh.pol.Name,
			})
		}
	}
	if primarySwap && d.Eval != nil && d.Eval.NewPerf > d.Eval.OldPerf && d.Eval.OldPerf > 0 {
		l.proposed = &prediction{
			epoch:       d.Epoch + 1,
			oldIter:     d.Input.IterTime,
			predIter:    d.Input.IterTime * d.Eval.OldPerf / d.Eval.NewPerf,
			predPayback: d.Eval.Payback,
			swapTime:    d.Input.SwapTime,
			oldPerf:     d.Eval.OldPerf,
			newPerf:     d.Eval.NewPerf,
		}
	}
	tr := l.cfg.Tracer
	l.mu.Unlock()
	for _, ev := range events {
		tr.Emit(ev)
	}
}

// regretLocked estimates the iterations won by taking a swap with the
// given pair over the configured horizon: s·(H − payback) with
// s = 1 − oldPerf/newPerf. Zero when the pair's numbers are unusable.
func (l *Lens) regretLocked(oldPerf, newPerf, payback float64) float64 {
	if newPerf <= 0 || oldPerf <= 0 || newPerf <= oldPerf ||
		math.IsInf(payback, 0) || math.IsNaN(payback) || payback < 0 {
		return 0
	}
	s := 1 - oldPerf/newPerf
	return s * (horizon - payback)
}

// ObserveOutcome records the two-phase outcome of the proposed epoch: a
// round in which any swap committed activates the armed prediction for
// realization; a round that fully aborted drops it. An outcome for an
// epoch nothing armed is ignored, so telling the lens twice is harmless.
func (l *Lens) ObserveOutcome(t float64, epoch uint64, committed bool) {
	if !l.Enabled() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if t > l.lastT {
		l.lastT = t
	}
	p := l.proposed
	if p == nil || p.epoch != epoch {
		return
	}
	l.proposed = nil
	if !committed {
		l.aborts++
		l.c.aborts.Inc()
		return
	}
	l.commits++
	l.c.commits.Inc()
	l.tracking = append(l.tracking, p)
	if len(l.tracking) > maxOpen {
		l.tracking = l.tracking[1:]
	}
}

// ObserveIteration feeds one post-decision iteration time (the leader's
// measurement at a swap point) into every tracked prediction; a
// prediction that has collected its window is scored and emitted.
func (l *Lens) ObserveIteration(t, iterTime float64) {
	if !l.Enabled() || iterTime <= 0 {
		return
	}
	l.mu.Lock()
	if t > l.lastT {
		l.lastT = t
	}
	var events []obs.Event
	keep := l.tracking[:0]
	for _, p := range l.tracking {
		p.samples = append(p.samples, iterTime)
		if len(p.samples) < realizeAfter {
			keep = append(keep, p)
			continue
		}
		events = append(events, l.realizeLocked(t, p)...)
	}
	l.tracking = keep
	tr := l.cfg.Tracer
	l.mu.Unlock()
	for _, ev := range events {
		tr.Emit(ev)
	}
}

// realizeLocked scores one fully sampled prediction, updates the error
// series and drift detector, and returns the events to emit after the
// lock drops.
func (l *Lens) realizeLocked(t float64, p *prediction) []obs.Event {
	mean := 0.0
	for _, s := range p.samples {
		mean += s
	}
	mean /= float64(len(p.samples))

	saving := p.oldIter - mean
	never := saving <= 0
	realPayback := 0.0
	relErr := errCap
	if !never {
		realPayback = p.swapTime / saving
		if p.predPayback > 0 && !math.IsInf(p.predPayback, 0) {
			relErr = math.Abs(realPayback-p.predPayback) / p.predPayback
			if relErr > errCap {
				relErr = errCap
			}
		}
	}
	ok := !never && relErr <= tolerance

	l.realizedN++
	l.c.realized.Inc()
	if !ok {
		l.mispredicts++
		l.c.mispredicts.Inc()
	}
	l.errs.Push(t, relErr)
	l.c.errHist.Add(relErr)
	an, hit := l.det.Observe(t, relErr)
	if hit {
		l.anomalies++
	}

	r := Realization{
		Epoch: p.epoch, T: t,
		PredPayback: p.predPayback, RealPayback: realPayback,
		PredIter: p.predIter, RealIter: mean,
		Err: relErr, OK: ok, NeverPaysOff: never,
	}
	l.lastReal = &r

	var events []obs.Event
	if l.cfg.Tracer.Enabled() {
		verdict := "ok"
		switch {
		case never:
			verdict = "never"
		case !ok:
			verdict = "mispredict"
		}
		events = append(events, obs.Event{
			Kind: obs.KindPaybackRealized, Rank: obs.RankRuntime, T: t,
			Epoch: p.epoch, IterTime: mean, SwapTime: p.swapTime,
			OldPerf: p.oldPerf, NewPerf: p.newPerf,
			Payback: realPayback, Value: finiteOr(p.predPayback, 0),
			Z: relErr, Verdict: verdict,
			Detail: fmt.Sprintf("pred=%.4g realized=%.4g err=%.3g tol=%.3g window=%d",
				finiteOr(p.predPayback, 0), realPayback, relErr, tolerance, len(p.samples)),
		})
		if hit {
			events = append(events, obs.Event{
				Kind: obs.KindAnomaly, Rank: obs.RankRuntime, T: t,
				Value: an.Value, IterTime: an.Mean, Z: an.Z, Detail: "payback_error",
			})
		}
	}
	return events
}

// Report renders the /policy document. Nil-safe: a nil lens reports
// Enabled false with an empty scoreboard.
func (l *Lens) Report() Report {
	if !l.Enabled() {
		return Report{Shadow: []PolicyScore{}}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.lastT
	if l.cfg.Clock != nil {
		now = l.cfg.Clock()
	}
	rep := Report{
		Enabled:   true,
		Now:       now,
		Tolerance: tolerance,
		Decisions: l.decisions,
		Commits:   l.commits,
		Aborts:    l.aborts,
		Tracking:  len(l.tracking),

		Realized:    l.realizedN,
		Mispredicts: l.mispredicts,
		ErrSeries:   series.Summarize(l.errs.Values()),
		Anomalies:   l.anomalies,
		Shadow:      []PolicyScore{},
	}
	if l.proposed != nil {
		rep.Tracking++
	}
	if l.lastReal != nil {
		r := *l.lastReal
		rep.Last = &r
	}
	for _, sh := range l.shadow {
		rep.Shadow = append(rep.Shadow, sh.score)
	}
	return rep
}

// finiteOr replaces non-finite values so events stay JSON-encodable.
func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fallback
	}
	return v
}

// Handler serves the lens report as JSON — mount it at /policy on a
// debug endpoint. A nil or disabled lens serves an empty report rather
// than erroring.
func Handler(l *Lens) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(l.Report())
	})
}
