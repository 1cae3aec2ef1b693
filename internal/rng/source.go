package rng

// The generator behind a Stream is math/rand's: the Mitchell–Reeds
// additive lagged-Fibonacci generator x[k] = x[k-607] + x[k-273] over
// int64, value for value what rand.NewSource(seed) draws — the figure
// CSVs pin those values. What differs is when the work is done.
// math/rand fills all 607 words of state at seed time, 1,841 sequential
// steps of the LCG x -> 48271·x mod 2³¹-1, and a stream here then draws a
// dozen values. This source computes nothing at seed time. Written over
// its outputs the recurrence is out[k] = out[k-607] + out[k-273], where
// an index below zero names one of math/rand's seed entries; an entry
// depends on the seed alone (three consecutive LCG values XOR a constant)
// and the LCG can be jumped, x[n] = seed·48271ⁿ mod 2³¹-1, so each entry
// costs three multiplications whichever order they are asked for in. The
// only state is the outputs themselves: a history that grows with the
// draws until it holds 607 of them, and is math/rand's ring from then on.

const (
	rngLen = 607
	rngTap = 273

	lcgMul = 48271
	lcgMod = 1<<31 - 1
)

// lcgJump[i] is 48271ⁿ mod 2³¹-1 for n = 21+3i, the number of LCG steps
// math/rand's Seed has taken when it starts on entry i: 20 discarded,
// then three per entry.
var lcgJump = func() (t [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lcgMul % lcgMod
	}
	for i := range t {
		t[i] = x
		x = x * (lcgMul * lcgMul * lcgMul % lcgMod) % lcgMod
	}
	return t
}()

// source implements rand.Source64. It is seeded by Seed only; the zero
// value is not usable.
type source struct {
	seed uint64 // the LCG's start, math/rand's normalisation of the seed
	// hist is out[0:k] while k < 607 values have been drawn, and from
	// then on the ring of the last 607 with out[k-607] at feed+1. It
	// starts in boot, which holds all that most streams ever draw.
	hist []int64
	feed int
	boot [32]int64
}

// Seed implements rand.Source with math/rand's seed normalisation.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	// A re-seeded source keeps a history buffer it outgrew boot into.
	if cap(s.hist) > len(s.boot) {
		s.hist = s.hist[:0]
	} else {
		s.hist = s.boot[:0]
	}
	s.feed = rngLen - 1
}

// entry computes math/rand's seed entry i, what rngSource.Seed would
// have stored in vec[i].
func (s *source) entry(i int) int64 {
	x := s.seed * lcgJump[i] % lcgMod
	u := int64(x) << 40
	x = x * lcgMul % lcgMod
	u ^= int64(x) << 20
	x = x * lcgMul % lcgMod
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if len(s.hist) < rngLen {
		return s.warm()
	}
	ring := (*[rngLen]int64)(s.hist)
	feed := s.feed + 1
	if feed == rngLen {
		feed = 0
	}
	tap := feed + rngLen - rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	x := ring[feed] + ring[tap]
	ring[feed] = x
	s.feed = feed
	return uint64(x)
}

// warm draws one of the first 607 values, those with a seed entry for an
// operand: math/rand's feed index starts at 333 and its tap at 606, both
// walking down and wrapping, and the tap reaches a word the feed has
// rewritten at draw 273.
func (s *source) warm() uint64 {
	k := len(s.hist)
	i := rngLen - rngTap - 1 - k
	if i < 0 {
		i += rngLen
	}
	x := s.entry(i)
	if k < rngTap {
		x += s.entry(rngLen - 1 - k)
	} else {
		x += s.hist[k-rngTap]
	}
	if k == cap(s.hist) {
		// Twice at most. A stream that outgrows boot is usually done
		// within a few dozen draws more; one that outgrows that too gets
		// the whole ring at once, not by doubling its way there.
		n := rngLen
		if k == len(s.boot) {
			n = 4 * len(s.boot)
		}
		s.hist = append(make([]int64, 0, n), s.hist...)
	}
	s.hist = append(s.hist, x)
	return uint64(x)
}
