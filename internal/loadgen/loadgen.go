// Package loadgen implements the CPU load models of the paper: the ON/OFF
// two-state Markov source and the degenerate hyperexponential
// process-lifetime model, plus constant sources, trace replay, and
// aggregation of sources.
//
// A load source describes, for one host, the number of competing
// compute-bound processes as a piecewise-constant function of time. A host
// whose speed is S flop/s and which carries n competing processes runs our
// process at S/(1+n) (fair CPU time-sharing).
package loadgen

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// foreverDur is the segment duration used by sources that hold a level
// "forever" (constant sources, replay tails, absorbing Markov states).
// It is about 30 million years, far beyond any simulation horizon, yet
// small enough that repeated accumulation in a lazily-extended trace can
// never overflow to +Inf.
const foreverDur = 1e15

// Segment is one piece of a piecewise-constant load function: N competing
// processes for Dur seconds.
type Segment struct {
	Dur float64
	N   int
}

// Source generates an infinite sequence of load segments for one host.
// Implementations are deterministic given their rng.Stream.
type Source interface {
	Next() Segment
}

// Model builds per-host sources. The host index keys the stream name so
// hosts get independent but reproducible load.
type Model interface {
	// NewSource returns the load source for host i.
	NewSource(src *rng.Source, host int) Source
	// Describe returns a short human-readable model description.
	Describe() string
}

// reseeder is a model whose sources restart in place: reseed turns prev,
// when it is one of the model's sources, into the source NewSource(src,
// host) would return, keeping its stream and buffers. NewSource runs
// the same code on a zero source, so the two cannot diverge.
type reseeder interface {
	reseed(prev Source, src *rng.Source, host int) (Source, bool)
}

// renew returns m's source for host: prev restarted in place when m
// allows it, a new source otherwise.
func renew(m Model, prev Source, src *rng.Source, host int) Source {
	if r, ok := m.(reseeder); ok && prev != nil {
		if s, ok := r.reseed(prev, src, host); ok {
			return s
		}
	}
	return m.NewSource(src, host)
}

// ---------------------------------------------------------------------------
// ON/OFF Markov source (paper Section 6, Figure 2).

// OnOff is the two-state Markov chain load model. The chain is evaluated
// once per Step seconds: in the OFF state a competing process arrives with
// probability P; in the ON state the competing process departs with
// probability Q. Sojourn times are therefore geometric with means Step/P
// and Step/Q. The paper's Figure 2 example uses P=0.3, Q=0.08.
//
// The chain starts in its stationary distribution (ON with probability
// P/(P+Q)) so that experiments do not begin in an artificially quiescent
// state.
type OnOff struct {
	P, Q float64 // exit probabilities per step
	Step float64 // seconds per Markov step
}

// DefaultStep is the Markov-step length used by the experiments. The
// paper's iteration times are minutes; a 30 s step gives load sojourns of
// minutes at moderate P (e.g. P=0.2 keeps a host free for 150 s on
// average), so that load conditions persist across iterations in the
// moderate-dynamism regime and flicker within an iteration when P
// approaches 1 — the two regimes Figure 4 contrasts.
const DefaultStep = 30.0

// NewOnOff returns the ON/OFF model with the given per-step load
// probability p and the paper's departure probability q=0.08.
func NewOnOff(p float64) OnOff { return OnOff{P: p, Q: 0.08, Step: DefaultStep} }

// Describe implements Model.
func (m OnOff) Describe() string {
	return fmt.Sprintf("onoff(p=%g,q=%g,step=%gs)", m.P, m.Q, m.Step)
}

// NewSource implements Model.
func (m OnOff) NewSource(src *rng.Source, host int) Source {
	s := new(onOffSource)
	s.restart(m, src, host)
	return s
}

func (m OnOff) reseed(prev Source, src *rng.Source, host int) (Source, bool) {
	s, ok := prev.(*onOffSource)
	if ok {
		s.restart(m, src, host)
	}
	return s, ok
}

type onOffSource struct {
	m  OnOff
	st *rng.Stream
	on bool
}

// restart validates m and starts s as host's chain under it.
func (s *onOffSource) restart(m OnOff, src *rng.Source, host int) {
	if m.Step <= 0 {
		panic("loadgen: OnOff.Step must be positive")
	}
	if m.P < 0 || m.P > 1 || m.Q < 0 || m.Q > 1 {
		panic(fmt.Sprintf("loadgen: OnOff probabilities out of range: p=%g q=%g", m.P, m.Q))
	}
	s.m, s.st, s.on = m, reseedStream(s.st, src, "onoff-host-", host), false
	// Stationary start: P(ON) = p/(p+q); a chain that can never leave a
	// state (p+q == 0) starts OFF.
	if m.P+m.Q > 0 {
		s.on = s.st.Bernoulli(m.P / (m.P + m.Q))
	}
}

// reseedStream restarts st, or a new stream when st is nil, as src's
// stream prefix+host.
func reseedStream(st *rng.Stream, src *rng.Source, prefix string, host int) *rng.Stream {
	if st == nil {
		st = new(rng.Stream)
	}
	src.ReseedIndexed(st, prefix, host)
	return st
}

func (s *onOffSource) Next() Segment {
	n := 0
	if s.on {
		n = 1
	}
	exit := s.m.P
	if s.on {
		exit = s.m.Q
	}
	if exit <= 0 {
		// Absorbing state: emit a very long segment. Callers extend
		// traces lazily, so "very long" just needs to outlast any run.
		return Segment{Dur: foreverDur, N: n}
	}
	steps := s.st.Geometric(exit)
	s.on = !s.on
	return Segment{Dur: float64(steps) * s.m.Step, N: n}
}

// ---------------------------------------------------------------------------
// Degenerate hyperexponential source (paper Section 6, Figure 3).

// HyperExp models competing-process load with uniformly random arrivals
// and a degenerate hyperexponential lifetime distribution, following
// Eager/Lazowska/Zahorjan: most arrivals are short-lived, a minority are
// long-lived, giving the heavy-tailed process-lifetime mix of
// Leland/Ott and Harchol-Balter/Downey. Unlike the ON/OFF model, multiple
// competing processes may be active simultaneously.
//
// Arrivals occur per Step seconds with probability ArrivalProb. A new
// process's lifetime is Exp(ShortMean) with probability ShortProb and
// Exp(LongMean) otherwise.
type HyperExp struct {
	ArrivalProb float64 // arrival probability per step
	Step        float64 // seconds per arrival slot
	ShortMean   float64 // mean lifetime of short processes (seconds)
	LongMean    float64 // mean lifetime of long processes (seconds)
	ShortProb   float64 // fraction of arrivals that are short
}

// NewHyperExp returns a hyperexponential model with the given mean process
// lifetime. The short/long mix is fixed (90% short) and the long mean is
// chosen so the overall mean equals meanLifetime with a short mean of
// meanLifetime/4, reproducing the heavy tail: a small fraction of jobs is
// an order of magnitude longer than the typical job.
func NewHyperExp(meanLifetime float64) HyperExp {
	const shortProb = 0.9
	short := meanLifetime / 4
	// meanLifetime = shortProb*short + (1-shortProb)*long
	long := (meanLifetime - shortProb*short) / (1 - shortProb)
	return HyperExp{
		ArrivalProb: 0.05,
		Step:        DefaultStep,
		ShortMean:   short,
		LongMean:    long,
		ShortProb:   shortProb,
	}
}

// Mean reports the model's mean process lifetime.
func (m HyperExp) Mean() float64 {
	return m.ShortProb*m.ShortMean + (1-m.ShortProb)*m.LongMean
}

// Describe implements Model.
func (m HyperExp) Describe() string {
	return fmt.Sprintf("hyperexp(arr=%g/%gs,mean=%.4gs,short=%.4g@%g,long=%.4g)",
		m.ArrivalProb, m.Step, m.Mean(), m.ShortMean, m.ShortProb, m.LongMean)
}

// NewSource implements Model.
func (m HyperExp) NewSource(src *rng.Source, host int) Source {
	s := new(hyperExpSource)
	s.restart(m, src, host)
	return s
}

func (m HyperExp) reseed(prev Source, src *rng.Source, host int) (Source, bool) {
	s, ok := prev.(*hyperExpSource)
	if ok {
		s.restart(m, src, host)
	}
	return s, ok
}

type hyperExpSource struct {
	m   HyperExp
	st  *rng.Stream
	t   float64   // current time (start of next slot)
	end []float64 // departure times of live processes, unsorted
}

// restart validates m and starts s as host's process mix under it at
// time 0, with no live process.
func (s *hyperExpSource) restart(m HyperExp, src *rng.Source, host int) {
	if m.Step <= 0 || m.ShortMean <= 0 || m.LongMean <= 0 {
		panic("loadgen: HyperExp parameters must be positive")
	}
	if m.ArrivalProb < 0 || m.ArrivalProb > 1 || m.ShortProb < 0 || m.ShortProb > 1 {
		panic("loadgen: HyperExp probabilities out of range")
	}
	s.m, s.st, s.t, s.end = m, reseedStream(s.st, src, "hyperexp-host-", host), 0, s.end[:0]
}

func (s *hyperExpSource) Next() Segment {
	// Advance one arrival slot, emitting the load level during it. The
	// trace layer merges equal consecutive segments, and within a slot we
	// split at departures for exactness.
	slotEnd := s.t + s.m.Step

	// Arrival at slot start.
	if s.st.Bernoulli(s.m.ArrivalProb) {
		mean := s.m.LongMean
		if s.st.Bernoulli(s.m.ShortProb) {
			mean = s.m.ShortMean
		}
		s.end = append(s.end, s.t+s.st.Exp(mean))
	}

	// Find the earliest departure within this slot, if any; the segment
	// runs until then (or the slot end) at the current level.
	level := 0
	first := slotEnd
	for _, e := range s.end {
		if e > s.t {
			level++
			if e < first {
				first = e
			}
		}
	}
	segEnd := first
	dur := segEnd - s.t
	// Garbage-collect departed processes.
	live := s.end[:0]
	for _, e := range s.end {
		if e > segEnd {
			live = append(live, e)
		}
	}
	s.end = live
	s.t = segEnd
	if dur <= 0 {
		// Degenerate (departure exactly at slot start); recurse once.
		return s.Next()
	}
	return Segment{Dur: dur, N: level}
}

// ---------------------------------------------------------------------------
// Constant, replay and aggregate sources.

// Constant is a load model with a fixed number of competing processes —
// useful for tests and for modelling dedicated (N=0) machines.
type Constant struct{ N int }

// Describe implements Model.
func (m Constant) Describe() string { return fmt.Sprintf("constant(%d)", m.N) }

// NewSource implements Model.
func (m Constant) NewSource(*rng.Source, int) Source { return constSource{n: m.N} }

type constSource struct{ n int }

func (s constSource) Next() Segment { return Segment{Dur: foreverDur, N: s.n} }

// Replay replays a fixed list of segments, then holds the Tail level
// forever. It supports the paper's "CPU load traces" future-work
// direction: measured traces can be fed through the same interface as the
// stochastic models.
type Replay struct {
	Segments []Segment
	Tail     int
}

// Describe implements Model.
func (m Replay) Describe() string { return fmt.Sprintf("replay(%d segments)", len(m.Segments)) }

// NewSource implements Model. Every host replays the same trace; wrap
// Replay per host for heterogeneous traces.
func (m Replay) NewSource(*rng.Source, int) Source {
	return &replaySource{segs: m.Segments, tail: m.Tail}
}

type replaySource struct {
	segs []Segment
	i    int
	tail int
}

func (s *replaySource) Next() Segment {
	if s.i < len(s.segs) {
		seg := s.segs[s.i]
		s.i++
		if seg.Dur <= 0 {
			return s.Next()
		}
		return seg
	}
	return Segment{Dur: foreverDur, N: s.tail}
}

// Reclaim models desktop-grid resource reclamation (the Condor-style
// eviction scenario the paper proposes combining with swapping): with
// probability Prob a host's owner reclaims it at a time uniform in
// [0, Horizon], after which Level competing processes occupy it forever
// (a large Level makes the host effectively unusable). Compose with a
// base load model via Aggregate.
type Reclaim struct {
	Prob    float64 // probability the host is ever reclaimed
	Horizon float64 // reclamation happens uniformly within [0, Horizon]
	Level   int     // competing processes after reclamation
}

// Describe implements Model.
func (m Reclaim) Describe() string {
	return fmt.Sprintf("reclaim(p=%g,within=%gs,level=%d)", m.Prob, m.Horizon, m.Level)
}

// NewSource implements Model.
func (m Reclaim) NewSource(src *rng.Source, host int) Source {
	s := new(reclaimSource)
	s.restart(m, src, host)
	return s
}

func (m Reclaim) reseed(prev Source, src *rng.Source, host int) (Source, bool) {
	s, ok := prev.(*reclaimSource)
	if ok {
		s.restart(m, src, host)
	}
	return s, ok
}

// reclaimSource holds no load until at, then level forever. A host that
// is never reclaimed has level 0; at 0 the owner holds it from the start.
type reclaimSource struct {
	st    *rng.Stream
	at    float64 // until the first segment is emitted
	level int
}

// restart validates m and draws whether and when the owner reclaims
// host.
func (s *reclaimSource) restart(m Reclaim, src *rng.Source, host int) {
	if m.Horizon <= 0 || m.Level < 0 || m.Prob < 0 || m.Prob > 1 {
		panic(fmt.Sprintf("loadgen: bad Reclaim %+v", m))
	}
	s.st = reseedStream(s.st, src, "reclaim-host-", host)
	s.at, s.level = 0, 0
	if s.st.Bernoulli(m.Prob) {
		s.at, s.level = s.st.Uniform(0, m.Horizon), m.Level
	}
}

func (s *reclaimSource) Next() Segment {
	if at := s.at; at > 0 {
		s.at = 0
		return Segment{Dur: at, N: 0}
	}
	return Segment{Dur: foreverDur, N: s.level}
}

// Aggregate sums the load of several models, as the paper suggests for
// generating "more complex loads ... by aggregating ON/OFF sources".
type Aggregate struct{ Models []Model }

// Describe implements Model.
func (m Aggregate) Describe() string { return fmt.Sprintf("aggregate(%d models)", len(m.Models)) }

// NewSource implements Model.
func (m Aggregate) NewSource(src *rng.Source, host int) Source {
	if len(m.Models) == 0 {
		panic("loadgen: Aggregate needs at least one model")
	}
	agg := &aggSource{}
	for j, sub := range m.Models {
		// Each component draws from an independent substream.
		s := sub.NewSource(src.Substream(fmt.Sprintf("agg-%d", j)), host)
		seg := s.Next()
		agg.srcs = append(agg.srcs, s)
		agg.rem = append(agg.rem, seg.Dur)
		agg.lvl = append(agg.lvl, seg.N)
	}
	return agg
}

type aggSource struct {
	srcs []Source
	rem  []float64 // remaining duration of each component's current segment
	lvl  []int
}

func (s *aggSource) Next() Segment {
	// The aggregate level holds until the earliest component boundary.
	minRem := math.Inf(1)
	total := 0
	for i := range s.srcs {
		if s.rem[i] < minRem {
			minRem = s.rem[i]
		}
		total += s.lvl[i]
	}
	for i := range s.srcs {
		s.rem[i] -= minRem
		if s.rem[i] <= 1e-12 {
			seg := s.srcs[i].Next()
			s.rem[i] = seg.Dur
			s.lvl[i] = seg.N
		}
	}
	return Segment{Dur: minRem, N: total}
}
