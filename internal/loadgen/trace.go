package loadgen

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Trace materializes a Source into a queryable piecewise-constant
// function of time, extended lazily as later times are queried. Equal
// consecutive segments are merged. Times are seconds from 0.
//
// Every query answers from the source's segment sequence alone: segments
// are only ever appended, in source order, and no answer depends on how
// far earlier queries happened to materialize the trace. A trace can
// therefore be queried again from time 0 (by the next run over the same
// environment) and gives each run what a trace freshly built from the
// same source would; hint only shortens the search. For the same reason
// a trace rewound onto a new source (Reload) answers as a trace built
// on it: NewTrace is a rewind of a zero Trace.
type Trace struct {
	src    Source
	starts []float64 // starts[i] is when vals[i] begins
	vals   []int
	end    float64 // time up to which the trace is materialized
	hint   int     // last segment index used, for monotonic access
}

// NewTrace wraps src. The trace begins at time 0.
func NewTrace(src Source) *Trace {
	tr := new(Trace)
	tr.rewind(src)
	return tr
}

// Reload rewinds tr onto m's source for host, the trace
// NewTrace(m.NewSource(src, host)) builds. It keeps tr's segment buffers
// and, when m's sources restart in place and tr's is one of them,
// restarts that source instead of building one.
func (tr *Trace) Reload(m Model, src *rng.Source, host int) {
	tr.rewind(renew(m, tr.src, src, host))
}

// rewind empties tr onto src, keeping its buffers: one placeholder
// segment at time 0, materialized up to 0.
func (tr *Trace) rewind(src Source) {
	tr.src = src
	tr.starts = append(tr.starts[:0], 0)
	tr.vals = append(tr.vals[:0], 0)
	tr.end, tr.hint = 0, 0
}

// extendTo materializes segments so the trace covers time t.
func (tr *Trace) extendTo(t float64) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("loadgen: trace query at %g", t))
	}
	for tr.end <= t {
		seg := tr.src.Next()
		if seg.Dur <= 0 {
			panic(fmt.Sprintf("loadgen: source produced non-positive segment duration %g", seg.Dur))
		}
		if len(tr.vals) > 0 && tr.vals[len(tr.vals)-1] == seg.N && tr.end > 0 {
			// Merge with previous equal-valued segment.
			tr.end += seg.Dur
			continue
		}
		if tr.end == 0 {
			// Replace the placeholder first segment.
			tr.vals[0] = seg.N
			tr.end = seg.Dur
			continue
		}
		tr.starts = append(tr.starts, tr.end)
		tr.vals = append(tr.vals, seg.N)
		tr.end += seg.Dur
	}
}

// seg returns the index of the segment containing time t, extending the
// trace as needed. Negative t panics.
func (tr *Trace) seg(t float64) int {
	if t < 0 {
		panic(fmt.Sprintf("loadgen: trace query at negative time %g", t))
	}
	tr.extendTo(t)
	// Fast path: monotonic access near the previous query.
	i := tr.hint
	if i < len(tr.starts) && tr.starts[i] <= t {
		for i+1 < len(tr.starts) && tr.starts[i+1] <= t {
			i++
			if i > tr.hint+8 {
				i = -1 // too far; fall back to binary search
				break
			}
		}
		if i >= 0 {
			tr.hint = i
			return i
		}
	}
	i = sort.SearchFloat64s(tr.starts, t)
	// SearchFloat64s returns the first index with starts[i] >= t; the
	// containing segment is the one before, unless exactly at a start.
	if i == len(tr.starts) || tr.starts[i] > t {
		i--
	}
	tr.hint = i
	return i
}

// ValueAt reports the number of competing processes at time t.
func (tr *Trace) ValueAt(t float64) int { return tr.vals[tr.seg(t)] }

// NextChange reports the end of the segment containing t — the earliest
// time strictly after t at which the load level changes — or +Inf when
// the level holds for foreverDur or longer.
func (tr *Trace) NextChange(t float64) float64 {
	i := tr.seg(t)
	// t falls in the last materialized segment: materialize until the
	// level changes. Stopping at the first source segment instead would
	// report a seam between two merged segments, or not, depending on
	// what was queried before.
	for i+1 == len(tr.starts) && tr.end-t < foreverDur {
		tr.extendTo(tr.end)
	}
	if i+1 < len(tr.starts) && tr.starts[i+1]-t < foreverDur {
		return tr.starts[i+1]
	}
	return math.Inf(1)
}

// MeanAvail reports the time-average of 1/(1+n(t)) over [t0, t1], the
// fraction of the CPU a single fair-shared process receives. For t0 == t1
// it reports the instantaneous availability at t0.
func (tr *Trace) MeanAvail(t0, t1 float64) float64 {
	if t1 < t0 {
		panic(fmt.Sprintf("loadgen: MeanAvail interval inverted [%g, %g]", t0, t1))
	}
	if t0 < 0 {
		t0 = 0
	}
	if t1 <= t0 {
		return 1 / (1 + float64(tr.ValueAt(t0)))
	}
	tr.extendTo(t1)
	total := 0.0
	t := t0
	for t < t1 {
		i := tr.seg(t)
		segEnd := tr.end
		if i+1 < len(tr.starts) {
			segEnd = tr.starts[i+1]
		}
		upto := math.Min(segEnd, t1)
		total += (upto - t) / (1 + float64(tr.vals[i]))
		t = upto
	}
	return total / (t1 - t0)
}

// MeanLoad reports the time-average competing-process count over [t0, t1].
func (tr *Trace) MeanLoad(t0, t1 float64) float64 {
	if t1 <= t0 {
		return float64(tr.ValueAt(t0))
	}
	tr.extendTo(t1)
	total := 0.0
	t := t0
	for t < t1 {
		i := tr.seg(t)
		segEnd := tr.end
		if i+1 < len(tr.starts) {
			segEnd = tr.starts[i+1]
		}
		upto := math.Min(segEnd, t1)
		total += (upto - t) * float64(tr.vals[i])
		t = upto
	}
	return total / (t1 - t0)
}

// Sample returns the load level at the points i·interval in [0, horizon]
// — the series plotted in the paper's Figures 2 and 3. A horizon within
// a relative 1e-9 of a multiple of interval includes that point, however
// the quotient rounds: Sample(0.3, 0.1) has four points.
func (tr *Trace) Sample(horizon, interval float64) []int {
	if interval <= 0 {
		panic("loadgen: Sample interval must be positive")
	}
	if math.IsInf(horizon, 1) {
		panic("loadgen: Sample horizon must be finite")
	}
	if !(horizon >= 0) {
		return nil
	}
	n := int(math.Floor(horizon/interval*(1+1e-9))) + 1
	out := make([]int, n)
	for i := range out {
		out[i] = tr.ValueAt(float64(i) * interval)
	}
	return out
}

// Segments returns a copy of the materialized segments covering at least
// [0, horizon]: parallel slices of start times and values.
func (tr *Trace) Segments(horizon float64) (starts []float64, vals []int) {
	tr.extendTo(horizon)
	return append([]float64(nil), tr.starts...), append([]int(nil), tr.vals...)
}
