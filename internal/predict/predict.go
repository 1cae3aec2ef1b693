// Package predict supplies the performance-history component of the
// swapping runtime: timestamped measurement buffers with time-window
// queries (the paper's "amount of performance history" policy parameter)
// and rate estimators that turn host load information into the per-host
// performance predictions the policies consume.
package predict

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nws"
	"repro/internal/platform"
)

// Sample is one timestamped measurement.
type Sample struct {
	T float64 // seconds
	V float64
}

// History is a buffer of timestamped measurements with time-window
// queries. Measurements must be added in nondecreasing time order (they
// come from a single monitor).
//
// The mean over a window is kept as a running sum between two cursors,
// so a monitor that adds a sample and asks for the mean up to it pays
// for the samples that entered and left the window since its last
// question, not for the window; any other question (an earlier now, another window)
// is answered by binary search and, when that is cheaper than moving
// the cursors, a fresh sum. Dropped samples are reclaimed once they
// outnumber the live ones.
type History struct {
	buf  []Sample // live samples are buf[head:], time-sorted
	head int

	// sum+comp is the compensated (Neumaier) sum of buf[lo:hi].V, so a
	// large value that entered and left the window takes no low-order
	// bits of the small ones with it. ops counts the terms added or
	// subtracted since the sum was last taken from scratch.
	lo, hi    int
	sum, comp float64
	ops       int
}

// Add appends a measurement at time t. Out-of-order times panic.
func (h *History) Add(t, v float64) {
	if n := len(h.buf); n > h.head && t < h.buf[n-1].T {
		panic(fmt.Sprintf("predict: out-of-order sample at %g after %g", t, h.buf[n-1].T))
	}
	h.buf = append(h.buf, Sample{T: t, V: v})
	// A sum that reaches the latest sample takes the new one along: the
	// monitor's next question is about a window that ends here, and a
	// question about an earlier one gives it back.
	if n := len(h.buf); h.hi == n-1 {
		h.add(h.hi, n, +1)
		h.hi = n
		h.ops++
	}
}

// Len reports the number of stored samples.
func (h *History) Len() int { return len(h.buf) - h.head }

// Latest returns the most recent sample, or ok=false with none.
func (h *History) Latest() (s Sample, ok bool) {
	if h.Len() == 0 {
		return Sample{}, false
	}
	return h.buf[len(h.buf)-1], true
}

// Window returns the samples with T in [now-window, now]. A zero window
// returns just the latest sample (if any). The result aliases the
// history: read it before the next Add, PruneBefore or Trim.
func (h *History) Window(now, window float64) []Sample {
	i, j := h.bounds(now, window)
	return h.buf[i:j:j]
}

// WindowMean reports the mean of samples in [now-window, now], or NaN
// with none.
func (h *History) WindowMean(now, window float64) float64 {
	i, j := h.bounds(now, window)
	if i == j {
		return math.NaN()
	}
	h.slide(i, j)
	return (h.sum + h.comp) / float64(j-i)
}

// PruneBefore discards samples older than t, bounding memory for
// long-running monitors.
func (h *History) PruneBefore(t float64) {
	h.drop(h.seek(h.lo, t, false))
}

// Trim discards every sample that no Window(now', window) with
// now' >= now can return: those older than now-window, or, with a zero
// window, all but the latest.
func (h *History) Trim(now, window float64) {
	if window > 0 {
		h.PruneBefore(now - window)
	} else if h.Len() > 0 {
		h.drop(len(h.buf) - 1)
	}
}

// bounds returns Window's answer as indices into buf.
func (h *History) bounds(now, window float64) (i, j int) {
	if window <= 0 {
		if n := len(h.buf); n > h.head && h.buf[n-1].T <= now {
			return n - 1, n
		}
		return h.head, h.head
	}
	i = h.seek(h.lo, now-window, false)
	j = max(i, h.seek(h.hi, now, true))
	return i, j
}

// seekSteps is how far seek walks from its hint before it bisects.
const seekSteps = 4

// seek returns the first live index whose sample is not before the
// boundary: T >= t, or with after set T > t. It starts at hint: a
// cursor that is at or just short of the answer — the monitor's steady
// case — finds it in a few steps, anything else by binary search.
func (h *History) seek(hint int, t float64, after bool) int {
	before := func(k int) bool { return h.buf[k].T < t || after && h.buf[k].T == t }
	lo, hi := h.head, len(h.buf)
	if hint = min(max(hint, lo), hi); hint > lo && !before(hint-1) {
		hi = hint - 1 // the answer is behind the hint
	} else {
		for k := 0; k < seekSteps; k, hint = k+1, hint+1 {
			if hint == hi || !before(hint) {
				return hint
			}
		}
		lo = hint
	}
	return lo + sort.Search(hi-lo, func(k int) bool { return !before(lo + k) })
}

// minResum is the least number of running-sum updates between two
// fresh sums of a short window.
const minResum = 64

// slide makes sum+comp the sum of buf[i:j]: by moving the cursors when
// that touches fewer samples than the window holds, from scratch
// otherwise — and from scratch at least once per max(window, minResum)
// updates, which bounds both the amortised cost (one extra pass per
// window's worth of updates) and how far rounding can accumulate. A
// non-finite running sum (an Inf sample that has since left) is retaken
// too.
func (h *History) slide(i, j int) {
	moved := abs(i-h.lo) + abs(j-h.hi)
	h.ops += moved
	if moved <= j-i && h.ops <= max(j-i, minResum) {
		h.add(h.lo, i, -1) // leaving at the old end (or, i < lo, coming back)
		h.add(h.hi, j, +1)
		h.lo, h.hi = i, j
		if s := h.sum + h.comp; s-s == 0 {
			return
		}
	}
	h.lo, h.hi, h.sum, h.comp, h.ops = i, i, 0, 0, 0
	h.add(i, j, +1)
	h.hi = j
}

// add moves one cursor from index from to index to, adding sign times
// the samples it passes going up and subtracting them going down.
func (h *History) add(from, to int, sign float64) {
	if from > to {
		from, to, sign = to, from, -sign
	}
	for _, s := range h.buf[from:to] {
		x := sign * s.V
		t := h.sum + x
		if math.Abs(h.sum) >= math.Abs(x) {
			h.comp += (h.sum - t) + x
		} else {
			h.comp += (x - t) + h.sum
		}
		h.sum = t
	}
}

// drop discards buf[:k], taking what it drops out of the running sum,
// and reclaims the dropped prefix once it is at least as long as what
// is left (so a sample is copied down at most once per sample dropped).
func (h *History) drop(k int) {
	if k <= h.head {
		return
	}
	if k > h.lo {
		h.slide(k, max(h.hi, k))
	}
	h.head = k
	if h.head >= len(h.buf)-h.head {
		n := copy(h.buf, h.buf[h.head:])
		h.buf = h.buf[:n]
		h.lo, h.hi, h.head = h.lo-k, h.hi-k, 0
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------------------
// Rate estimators for the simulator.

// RateEstimator predicts a host's effective rate (flop/s) over the near
// future, using up to `window` seconds of performance history ending at
// `now`. A zero window means "no history": use the instantaneous
// measurement, as the paper's greedy policy does.
type RateEstimator interface {
	Rate(h *platform.Host, now, window float64) float64
}

// ExactEstimator computes the true time-averaged availability from the
// host's load trace — an idealized monitor with continuous sampling. This
// is the estimator the simulation studies use by default: it isolates the
// policy comparison from sensor noise, matching the paper's methodology.
type ExactEstimator struct{}

// Rate implements RateEstimator.
func (ExactEstimator) Rate(h *platform.Host, now, window float64) float64 {
	if window <= 0 {
		return h.RateAt(now)
	}
	start := now - window
	if start < 0 {
		start = 0
	}
	return h.MeanRate(start, now)
}

// SampledEstimator models a realistic periodic monitor: availability is
// sampled every Interval seconds and a forecaster summarizes the samples
// in the history window. NewForecaster supplies a fresh forecaster per
// query (forecasters are stateful and single-series).
type SampledEstimator struct {
	Interval      float64
	NewForecaster func() nws.Forecaster
}

// Rate implements RateEstimator.
func (e SampledEstimator) Rate(h *platform.Host, now, window float64) float64 {
	if e.Interval <= 0 {
		panic("predict: SampledEstimator.Interval must be positive")
	}
	if window <= 0 {
		return h.RateAt(now)
	}
	start := now - window
	if start < 0 {
		start = 0
	}
	f := e.NewForecaster()
	// Feed samples oldest-to-newest, aligned so the last sample is `now`.
	n := int((now - start) / e.Interval)
	for i := n; i >= 0; i-- {
		t := now - float64(i)*e.Interval
		if t < start {
			continue
		}
		f.Add(h.AvailAt(t))
	}
	p := f.Predict()
	if math.IsNaN(p) {
		return h.RateAt(now)
	}
	return h.Speed * p
}
