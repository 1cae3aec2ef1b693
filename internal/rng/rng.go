// Package rng provides deterministic, named random-number streams.
//
// Every stochastic component of the simulator (one per host load source,
// one per experiment repetition, ...) draws from its own Stream, derived
// from a root seed and a string name. Two runs with the same root seed and
// the same stream names produce identical results regardless of the order
// in which components consume randomness, which makes every experiment in
// this repository exactly reproducible.
package rng

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Stream is a deterministic random-number stream. It wraps math/rand with
// distribution helpers used by the load models; the values are those of
// rand.NewSource, drawn from a source that is seeded lazily (source.go).
// A Stream is not safe for concurrent use; derive one stream per goroutine
// instead. The zero Stream is ready for Reseed or ReseedIndexed.
type Stream struct {
	r   *rand.Rand
	src source
}

// Source identifies a root seed from which named streams are derived.
type Source struct {
	seed uint64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed int64) *Source {
	return &Source{seed: uint64(seed)}
}

// Stream derives the stream for name. Calling Stream twice with the same
// name returns independent Stream objects that generate identical
// sequences.
func (s *Source) Stream(name string) *Stream {
	st := new(Stream)
	s.Reseed(st, name)
	return st
}

// Reseed restarts st, whatever it has drawn, as the stream Stream(name)
// returns. It keeps st's generator and history buffer.
func (s *Source) Reseed(st *Stream, name string) {
	st.seed(s.derive(fnv1a(fnvOffset, name)))
}

// ReseedIndexed restarts st as the stream Stream(prefix +
// strconv.Itoa(i)) returns, without building the name: it hashes the
// prefix's bytes and then i's decimal digits.
func (s *Source) ReseedIndexed(st *Stream, prefix string, i int) {
	var digits [20]byte
	st.seed(s.derive(fnv1a(fnv1a(fnvOffset, prefix), strconv.AppendInt(digits[:0], int64(i), 10))))
}

// derive mixes the hash of a stream's name with the root seed using a
// SplitMix64-style finalizer so that nearby seeds do not produce
// correlated streams.
func (s *Source) derive(h uint64) int64 { return int64(mix64(s.seed ^ h)) }

// seed starts st's sequence over: rand.Rand.Seed re-seeds the source and
// drops the bytes Read had buffered, the only state a Rand keeps.
func (st *Stream) seed(seed int64) {
	if st.r == nil {
		st.r = rand.New(&st.src)
	}
	st.r.Seed(seed)
}

// Substream derives a child source, for hierarchical naming such as
// rep-level sources that own per-host streams.
func (s *Source) Substream(name string) *Source {
	return &Source{seed: mix64(s.seed ^ fnv1a(fnvOffset, name))}
}

const fnvOffset = 14695981039346656037

// fnv1a continues the 64-bit FNV-1a hash h over b: hash/fnv's New64a
// without the hasher, and over a string without converting it. Hashing
// a name in two pieces gives the hash of the whole.
func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Float64 returns a uniform variate in [0, 1).
func (st *Stream) Float64() float64 { return st.r.Float64() }

// Uniform returns a uniform variate in [lo, hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Uniform bounds inverted: [%g, %g)", lo, hi))
	}
	return lo + (hi-lo)*st.r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (st *Stream) Intn(n int) int { return st.r.Intn(n) }

// Bernoulli returns true with probability p.
func (st *Stream) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return st.r.Float64() < p
}

// Exp returns an exponential variate with the given mean. It panics if
// mean <= 0.
func (st *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: Exp mean must be positive, got %g", mean))
	}
	return st.r.ExpFloat64() * mean
}

// Geometric returns the number of Bernoulli(p) trials up to and including
// the first success, i.e. a geometric variate with support {1, 2, ...} and
// mean 1/p. It panics unless 0 < p <= 1.
func (st *Stream) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("rng: Geometric probability out of range: %g", p))
	}
	if p == 1 {
		return 1
	}
	// Inversion: ceil(ln(U) / ln(1-p)).
	u := st.r.Float64()
	for u == 0 {
		u = st.r.Float64()
	}
	return int(math.Ceil(math.Log(u) / math.Log1p(-p)))
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (st *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*st.r.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (st *Stream) Perm(n int) []int { return st.r.Perm(n) }

// Shuffle pseudo-randomizes the order of elements using swap.
func (st *Stream) Shuffle(n int, swap func(i, j int)) { st.r.Shuffle(n, swap) }
