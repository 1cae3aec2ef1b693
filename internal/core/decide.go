package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Candidate is a host (or processor) with its predicted effective
// performance, as estimated by the policy's history window.
type Candidate struct {
	ID   int
	Rate float64 // predicted flop/s (any increasing performance measure)
}

// SwapPair is one accepted swap: move the process off Out's host onto
// In's host.
type SwapPair struct {
	Out, In  Candidate
	ProcGain float64 // fractional process performance gain
	AppGain  float64 // fractional application performance gain
	Payback  float64 // payback distance in iterations
}

// DecideInput carries everything a policy needs to make a swap decision
// at an iteration boundary.
type DecideInput struct {
	Active []Candidate // hosts currently running application processes
	Spare  []Candidate // over-allocated idle hosts
	// IterTime is the application's current iteration time (seconds),
	// the "old iteration time" of the payback formula.
	IterTime float64
	// SwapTime is the predicted cost of one swap (seconds).
	SwapTime float64
	// AppPerf predicts relative application performance for a
	// hypothetical multiset of active-host rates; higher is better. If
	// nil, the bottleneck model is used: performance proportional to the
	// minimum rate, which is exact for equal-size work partitions.
	AppPerf func(rates []float64) float64
}

// Decision order: slowest active first, fastest spare first. Ties break
// by ID, so the order is total and decisions are deterministic.
func slowestFirst(a, b Candidate) int {
	if a.Rate != b.Rate {
		return cmp.Compare(a.Rate, b.Rate)
	}
	return cmp.Compare(a.ID, b.ID)
}

func fastestFirst(a, b Candidate) int {
	if a.Rate != b.Rate {
		return cmp.Compare(b.Rate, a.Rate)
	}
	return cmp.Compare(a.ID, b.ID)
}

// Ordered returns the input with its candidates in decision order: the
// pairs a policy can consider are the k-th slowest active with the k-th
// fastest spare for k below min(active, spare), so that many candidates
// lead each side, in order, and the rest follow them in no particular
// order — on the figures' 4 + 28 four spares are selected and 24 are not
// sorted. An input already in that order is returned as it is, and a
// policy deciding on it copies and orders nothing — so whoever puts one
// boundary's candidates before several policies (a primary and its
// shadows) orders them once. Otherwise the candidates are copied into
// *buf (grown as needed; nil allocates) and ordered there: in's own
// slices are never written.
func (in DecideInput) Ordered(buf *[]Candidate) DecideInput {
	na := len(in.Active)
	lead := min(na, len(in.Spare))
	if leadInOrder(in.Active, lead, slowestFirst) && leadInOrder(in.Spare, lead, fastestFirst) {
		return in
	}
	var cands []Candidate
	if buf != nil {
		cands = (*buf)[:0]
	}
	cands = append(append(slices.Grow(cands, na+len(in.Spare)), in.Active...), in.Spare...)
	if buf != nil {
		*buf = cands
	}
	in.Active, in.Spare = cands[:na:na], cands[na:]
	selectLead(in.Active, lead, slowestFirst)
	selectLead(in.Spare, lead, fastestFirst)
	return in
}

// leadInOrder reports whether s[:lead] is sorted and nothing after it
// belongs before its last element.
func leadInOrder(s []Candidate, lead int, order func(a, b Candidate) int) bool {
	if lead == 0 {
		return true
	}
	for i := 1; i < lead; i++ {
		if order(s[i], s[i-1]) < 0 {
			return false
		}
	}
	for _, c := range s[lead:] {
		if order(c, s[lead-1]) < 0 {
			return false
		}
	}
	return true
}

// selectLead moves the lead candidates that come first under order to the
// front of s, in order: s[:lead] is kept sorted while each later
// candidate that belongs in it is inserted and takes the place of the
// one it pushes out.
func selectLead(s []Candidate, lead int, order func(a, b Candidate) int) {
	if lead == 0 {
		return
	}
	slices.SortFunc(s[:lead], order)
	for i := lead; i < len(s); i++ {
		c := s[i]
		if order(c, s[lead-1]) >= 0 {
			continue
		}
		s[i] = s[lead-1]
		j := lead - 1
		for ; j > 0 && order(c, s[j-1]) < 0; j-- {
			s[j] = s[j-1]
		}
		s[j] = c
	}
}

// BottleneckAppPerf is the default application performance model: with
// equal work partitions the iteration time is set by the slowest host, so
// application performance is proportional to the minimum rate.
func BottleneckAppPerf(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, r := range rates {
		if r < m {
			m = r
		}
	}
	return m
}

// Explanation records why a Decide call reached its verdict: the inputs
// the payback algebra saw, the decisive pair's numbers, and which gate
// decided. For an accepted decision the decisive pair is the first (the
// slowest-active/fastest-spare headline swap); for a rejection it is the
// pair the first failing gate stopped on. Observability (internal/obs)
// attaches this to SwapDecision events so traces answer "why did rank k
// swap here?" without rerunning the policy.
type Explanation struct {
	Considered int     `json:"considered"`          // candidate pairs examined
	IterTime   float64 `json:"iter_time"`           // old iteration time (s)
	SwapTime   float64 `json:"swap_time"`           // predicted swap cost (s)
	OldPerf    float64 `json:"old_perf,omitempty"`  // decisive pair: active rate
	NewPerf    float64 `json:"new_perf,omitempty"`  // decisive pair: spare rate
	ProcGain   float64 `json:"proc_gain,omitempty"` // decisive pair: process gain
	AppGain    float64 `json:"app_gain,omitempty"`  // decisive pair: app gain
	Payback    float64 `json:"payback,omitempty"`   // decisive pair: payback distance
	Verdict    string  `json:"verdict"`             // "swap" or "stay"
	Reason     string  `json:"reason"`              // the gate that decided, with numbers
}

// Decide applies the policy to propose swaps, following the paper: "All
// three policies, when they decide to swap, swap the slowest active
// processor(s) for the fastest inactive processor(s)". Pairs are
// considered in that order (slowest active with fastest spare, then
// second-slowest with second-fastest, ...) and each must clear every
// enabled gate:
//
//   - the spare must be predicted strictly faster than the active host;
//   - the process improvement must exceed MinProcImprovement;
//   - the payback distance must be positive and at most PaybackThreshold;
//   - if MinAppImprovement > 0, the application improvement (cumulative
//     over already-accepted pairs) must exceed it.
//
// Consideration stops at the first rejected pair.
func (p Policy) Decide(in DecideInput) []SwapPair {
	out, _, _ := p.decide(in)
	return out
}

// DecideExplained is Decide plus an Explanation of the verdict.
func (p Policy) DecideExplained(in DecideInput) ([]SwapPair, Explanation) {
	out, exp, g := p.decide(in)
	switch {
	case exp.Considered > 0:
		exp.Reason = p.gateText(g, exp)
	case len(in.Active) == 0:
		exp.Reason = "no active candidates"
	default:
		exp.Reason = "no spare candidates"
	}
	return out, exp
}

// DecideQuiet is DecideExplained without the Reason sentence: the same
// pairs and the same numbers, and no text formatted. It is for callers
// that record the explanation only when somebody is listening (a tracer
// is attached) and otherwise read just its numbers.
func (p Policy) DecideQuiet(in DecideInput) ([]SwapPair, Explanation) {
	out, exp, _ := p.decide(in)
	return out, exp
}

// decide is the decision itself: the pairs, the Explanation without its
// Reason, and the gate that decided for the decisive pair (meaningful
// when at least one pair was considered).
func (p Policy) decide(in DecideInput) ([]SwapPair, Explanation, gate) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if in.IterTime <= 0 {
		panic(fmt.Sprintf("core: Decide with IterTime %g", in.IterTime))
	}
	if in.SwapTime < 0 {
		panic(fmt.Sprintf("core: Decide with SwapTime %g", in.SwapTime))
	}
	appPerf := in.AppPerf
	if appPerf == nil {
		appPerf = BottleneckAppPerf
	}

	in = in.Ordered(nil)
	active, spare := in.Active, in.Spare
	na, ns := len(active), len(spare)

	exp := Explanation{IterTime: in.IterTime, SwapTime: in.SwapTime, Verdict: "stay"}
	var out []SwapPair
	var decisive gate
	// The active rates, for the application gate: built when the first
	// pair gets that far, so a decision that stops at a process gate —
	// the steady case — allocates nothing.
	var rates []float64
	for k := 0; k < min(na, ns); k++ {
		pair, g := p.processGates(active[k], spare[k], in.IterTime, in.SwapTime)
		if g == gateAccepted {
			if rates == nil {
				rates = make([]float64, na)
				for i, c := range active {
					rates[i] = c.Rate
				}
			}
			g = p.appGate(&pair, rates, k, appPerf)
		}
		exp.Considered++
		if g != gateAccepted {
			// A rejection after accepted pairs keeps the headline swap as
			// the decisive pair; a rejection with none accepted explains
			// the stay.
			if len(out) == 0 {
				exp.fill(pair)
				decisive = g
			}
			break
		}
		if len(out) == 0 {
			exp.Verdict = "swap"
			exp.fill(pair)
		}
		out = append(out, pair)
		rates[k] = spare[k].Rate // app gains accumulate over accepted pairs
	}
	return out, exp, decisive
}

// fill copies the decisive pair's numbers into the explanation.
func (e *Explanation) fill(pair SwapPair) {
	e.OldPerf = pair.Out.Rate
	e.NewPerf = pair.In.Rate
	e.ProcGain = pair.ProcGain
	e.AppGain = pair.AppGain
	e.Payback = pair.Payback
}

// EvaluatePair applies the policy's gates to one specific candidate swap:
// replacing the active host at index idx of rates (which must equal
// out.Rate) with the spare `in`. It returns the accepted pair and true,
// or false if any gate rejects. This is the primitive both Decide and the
// selection-rule ablation build on; rates is unchanged on return.
func (p Policy) EvaluatePair(out, in Candidate, rates []float64, idx int,
	iterTime, swapTime float64, appPerf func([]float64) float64) (SwapPair, bool) {

	if appPerf == nil {
		appPerf = BottleneckAppPerf
	}
	pair, g := p.processGates(out, in, iterTime, swapTime)
	if g == gateAccepted {
		g = p.appGate(&pair, rates, idx, appPerf)
	}
	if g != gateAccepted {
		return SwapPair{}, false
	}
	return pair, true
}

// gate names what decided a pair: accepted, or the gate that rejected it.
type gate uint8

const (
	gateAccepted gate = iota
	gateNotFaster
	gateProcGain
	gatePayback
	gateAppGain
	// Relocation only: an empty set, no iteration time, no payback ever.
	gateEmpty
	gateIterTime
	gateNotBeneficial
)

// processGates applies the gates that look at the pair alone. On
// rejection the returned pair still carries whatever numbers the gates
// computed before failing, so explanations can show them.
func (p Policy) processGates(out, in Candidate, iterTime, swapTime float64) (SwapPair, gate) {
	pair := SwapPair{Out: out, In: in}
	if in.Rate <= out.Rate {
		return pair, gateNotFaster
	}
	pair.ProcGain = in.Rate/out.Rate - 1
	if pair.ProcGain <= p.MinProcImprovement {
		return pair, gateProcGain
	}
	pair.Payback = PaybackDistance(swapTime, iterTime, out.Rate, in.Rate)
	if pair.Payback > p.PaybackThreshold {
		return pair, gatePayback
	}
	return pair, gateAccepted
}

// appGate computes the application gain of a pair that cleared the
// process gates — rates[idx] is the outgoing host's — and applies the
// application gate; rates is unchanged on return.
func (p Policy) appGate(pair *SwapPair, rates []float64, idx int, appPerf func([]float64) float64) gate {
	// The hypothetical rate set is rates with the spare swapped in for
	// the duration of one appPerf call.
	oldPerf := appPerf(rates)
	old := rates[idx]
	rates[idx] = pair.In.Rate
	newPerf := appPerf(rates)
	rates[idx] = old
	if oldPerf > 0 {
		pair.AppGain = newPerf/oldPerf - 1
	}
	if p.MinAppImprovement > 0 && pair.AppGain <= p.MinAppImprovement {
		return gateAppGain
	}
	return gateAccepted
}

// gateText words a gate's verdict with the decisive pair's numbers.
func (p Policy) gateText(g gate, e Explanation) string {
	switch g {
	case gateNotFaster:
		return fmt.Sprintf("spare rate %.4g not above active rate %.4g", e.NewPerf, e.OldPerf)
	case gateProcGain:
		return fmt.Sprintf("process gain %.3g <= minimum %.3g", e.ProcGain, p.MinProcImprovement)
	case gatePayback:
		return fmt.Sprintf("payback %.3g iterations > threshold %.3g", e.Payback, p.PaybackThreshold)
	case gateAppGain:
		return fmt.Sprintf("application gain %.3g <= minimum %.3g", e.AppGain, p.MinAppImprovement)
	}
	return fmt.Sprintf("payback %.3g iterations within threshold %.3g", e.Payback, p.PaybackThreshold)
}

// RelocateInput describes a proposed whole-application relocation, the
// checkpoint/restart analogue of a swap decision: the paper's CR
// technique decides to checkpoint "based on the same criteria used to
// evaluate process swapping decisions", except that the whole application
// pays one combined overhead and every process may move.
type RelocateInput struct {
	// OldRates and NewRates are the predicted rates of the current and
	// proposed host sets (equal lengths).
	OldRates, NewRates []float64
	IterTime           float64 // current iteration time (seconds)
	Overhead           float64 // total checkpoint+restart+reload cost (seconds)
	AppPerf            func(rates []float64) float64
}

// DecideRelocation reports whether the policy allows the relocation, and
// the application-level payback distance of doing it: the numbers of
// DecideRelocationExplained without the Reason sentence.
func (p Policy) DecideRelocation(in RelocateInput) (ok bool, payback float64) {
	ok, payback, _, _ = p.relocate(in)
	return ok, payback
}

// DecideRelocationExplained is DecideRelocation plus an Explanation of
// the verdict, bringing relocation decisions to parity with
// DecideExplained so the audit trail sees why a checkpoint/restart move
// was (or was not) taken. The returned payback keeps the historical
// +Inf convention for impossible relocations; the Explanation stores
// only finite numbers (Payback stays zero when the distance is
// infinite) so it remains JSON-encodable.
func (p Policy) DecideRelocationExplained(in RelocateInput) (ok bool, payback float64, exp Explanation) {
	ok, payback, exp, g := p.relocate(in)
	switch g {
	case gateEmpty:
		exp.Reason = "no processes to relocate"
	case gateIterTime:
		exp.Reason = fmt.Sprintf("iteration time %.4g not positive", in.IterTime)
	case gateNotFaster:
		exp.Reason = fmt.Sprintf("new set performance %.4g not above old %.4g", exp.NewPerf, exp.OldPerf)
	case gateNotBeneficial:
		exp.Reason = fmt.Sprintf("payback %.3g iterations is not beneficial", payback)
	default:
		exp.Reason = p.gateText(g, exp)
	}
	return ok, payback, exp
}

// relocate is the relocation decision itself: the verdict, the payback,
// the Explanation without its Reason, and the gate that decided.
func (p Policy) relocate(in RelocateInput) (bool, float64, Explanation, gate) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if len(in.OldRates) != len(in.NewRates) {
		panic(fmt.Sprintf("core: DecideRelocation with %d old vs %d new rates",
			len(in.OldRates), len(in.NewRates)))
	}
	exp := Explanation{IterTime: in.IterTime, SwapTime: in.Overhead, Verdict: "stay"}
	never := math.Inf(1)
	if len(in.OldRates) == 0 {
		return false, never, exp, gateEmpty
	}
	if in.IterTime <= 0 {
		return false, never, exp, gateIterTime
	}
	appPerf := in.AppPerf
	if appPerf == nil {
		appPerf = BottleneckAppPerf
	}
	oldPerf, newPerf := appPerf(in.OldRates), appPerf(in.NewRates)
	exp.Considered, exp.OldPerf, exp.NewPerf = 1, oldPerf, newPerf
	if newPerf <= oldPerf || oldPerf <= 0 {
		return false, never, exp, gateNotFaster
	}
	// Per-process gate, mirroring Decide: only the decisive pair, slowest
	// old host with fastest new one, must clear the process threshold
	// (further pairs may be unchanged members of the set); a set whose
	// fastest newcomer is no faster than its slowest incumbent has none.
	if slowest, fastest := slices.Min(in.OldRates), slices.Max(in.NewRates); fastest > slowest {
		exp.ProcGain = fastest/slowest - 1
		if exp.ProcGain <= p.MinProcImprovement {
			return false, never, exp, gateProcGain
		}
	}
	payback := PaybackDistance(in.Overhead, in.IterTime, oldPerf, newPerf)
	if !math.IsInf(payback, 0) {
		exp.Payback = payback
	}
	exp.AppGain = newPerf/oldPerf - 1
	if in.Overhead > 0 && !Beneficial(payback) {
		return false, payback, exp, gateNotBeneficial
	}
	if payback > p.PaybackThreshold {
		return false, payback, exp, gatePayback
	}
	if p.MinAppImprovement > 0 && exp.AppGain <= p.MinAppImprovement {
		return false, payback, exp, gateAppGain
	}
	exp.Verdict = "relocate"
	return true, payback, exp, gateAccepted
}
