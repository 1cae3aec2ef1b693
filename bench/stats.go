package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is
// not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // may leave [0,4]: Python extrapolates too
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is (Q3 − Q1) / median, the run-to-run spread the driver holds
// against a metric's bound.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func durationsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d)
	}
	return out
}

// hash64 is FNV-1a over 64-bit words: the correctness checks hash grids
// and figure cells with it.
type hash64 struct{ sum uint64 }

func newHash() *hash64 { return &hash64{sum: 14695981039346656037} }

func (h *hash64) word(w uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= w & 0xff
		h.sum *= 1099511628211
		w >>= 8
	}
}

func (h *hash64) float(f float64) { h.word(math.Float64bits(f)) }

// splitmix64 is the benchmark's input generator: a tiny, seedable,
// stdlib-free stream so generated inputs are byte-identical across Go
// releases.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fullMantissa maps 64 random bits to a float64 in [1, 2) whose lowest
// mantissa bit is set, so gob's trailing-zero trimming cannot shrink it.
func fullMantissa(bits uint64) float64 {
	return math.Float64frombits(0x3FF0000000000000 | bits>>12 | 1)
}
