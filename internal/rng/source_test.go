package rng

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// seeded returns the lazy source and math/rand's own, on one seed.
func seeded(seed int64) (*source, rand.Source64) {
	s := new(source)
	s.Seed(seed)
	return s, rand.NewSource(seed).(rand.Source64)
}

// matchDraws draws n values from each side and reports the first
// disagreement; Int63 and Uint64 alternate so both methods are read.
func matchDraws(t *testing.T, seed int64, got *source, want rand.Source64, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		if k%3 == 2 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, draw %d: Int63 %#x, math/rand %#x", seed, k, g, w)
			}
			continue
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d, draw %d: Uint64 %#x, math/rand %#x", seed, k, g, w)
		}
	}
}

// The lazy source is rand.NewSource draw for draw, on the seeds math/rand
// normalises specially and on 2,000 random ones, far enough that the tap
// leaves the seed entries (draw 273), the feed wraps (334), the seed
// entries run out (607) and the ring has gone round more than once — and
// again after re-seeding the used source.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, m - 1, m + 1, 1 << 31, 2 * m, 3 * m, -5 * m, 1000 * m,
		89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	pick := rand.New(rand.NewSource(20))
	for len(seeds) < 2016 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	const draws = 5000 // 8 laps of the ring
	for i, seed := range seeds {
		got, want := seeded(seed)
		matchDraws(t, seed, got, want, draws)
		// Re-seed wherever the first seed left it: mid-warm-up, or with
		// the ring full.
		next := seeds[(i+1)%len(seeds)]
		got.Seed(next)
		want.Seed(next)
		matchDraws(t, next, got, want, 700)
		got.Seed(seed)
		want.Seed(seed)
		matchDraws(t, seed, got, want, 40+i%600)
	}
}

// Every Stream method reads the source through rand.Rand exactly as it
// did over rand.NewSource: a reference Stream built on math/rand's source
// agrees on every distribution helper, interleaved.
func TestStreamMethodsMatchMathRand(t *testing.T) {
	for seed := int64(-3); seed < 40; seed++ {
		got := NewSource(seed).Stream("methods")
		want := &Stream{r: rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ fnv1a(fnvOffset, "methods")))))}
		for round := 0; round < 400; round++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d round %d: Float64 %v, want %v", seed, round, g, w)
			}
			if g, w := got.Exp(12.5), want.Exp(12.5); g != w {
				t.Fatalf("seed %d round %d: Exp %v, want %v", seed, round, g, w)
			}
			if g, w := got.Normal(5, 2), want.Normal(5, 2); g != w {
				t.Fatalf("seed %d round %d: Normal %v, want %v", seed, round, g, w)
			}
			if g, w := got.Intn(1+round), want.Intn(1+round); g != w {
				t.Fatalf("seed %d round %d: Intn %v, want %v", seed, round, g, w)
			}
			if g, w := got.Geometric(0.25), want.Geometric(0.25); g != w {
				t.Fatalf("seed %d round %d: Geometric %v, want %v", seed, round, g, w)
			}
			if g, w := got.Uniform(-2, 9), want.Uniform(-2, 9); g != w {
				t.Fatalf("seed %d round %d: Uniform %v, want %v", seed, round, g, w)
			}
			if g, w := got.Bernoulli(0.3), want.Bernoulli(0.3); g != w {
				t.Fatalf("seed %d round %d: Bernoulli %v, want %v", seed, round, g, w)
			}
			if g, w := got.Perm(round%7), want.Perm(round%7); !slices.Equal(g, w) {
				t.Fatalf("seed %d round %d: Perm %v, want %v", seed, round, g, w)
			}
			var gs, ws []int
			got.Shuffle(5, func(i, j int) { gs = append(gs, i, j) })
			want.Shuffle(5, func(i, j int) { ws = append(ws, i, j) })
			if !slices.Equal(gs, ws) {
				t.Fatalf("seed %d round %d: Shuffle swaps %v, want %v", seed, round, gs, ws)
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(1<<31-1), uint16(273))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got, want := seeded(seed)
		matchDraws(t, seed, got, want, int(draws))
	})
}

// The name hash is hash/fnv's FNV-1a and the seed mixing is unchanged:
// first draws recorded before the hash was inlined and the source
// replaced.
func TestStreamFirstDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		name string
		want float64
	}{
		{42, "host-3", 0.974145529721198},
		{20030623, "swap-select", 0.6677671358944024},
		{-7, "", 0.6135212897979586},
		{1, "rep-0/host-31", 0.41056208824016216},
	} {
		if got := NewSource(c.seed).Stream(c.name).Float64(); got != c.want {
			t.Errorf("NewSource(%d).Stream(%q) first draws %v, recorded %v", c.seed, c.name, got, c.want)
		}
	}
	if got := NewSource(7).Substream("rep-2").Stream("host-0").Float64(); got != 0.5765847520775668 {
		t.Errorf("Substream(rep-2).Stream(host-0) first draws %v, recorded 0.5765847520775668", got)
	}
}

// A stream costs what it draws. Up to the 32 values of the inline history
// it is two objects (the Stream with its source inside, and the
// rand.Rand; it was three over rand.NewSource, one of them 4,872 bytes);
// drained past the whole ring, the history has moved twice and to under
// 8 KB in all, not six times through 14.8 KB as plain append doubling
// would.
func TestStreamAllocations(t *testing.T) {
	src := NewSource(5)
	draw := func(n int) func() {
		return func() {
			st := src.Stream("host-17")
			for i := 0; i < n; i++ {
				st.Float64()
			}
		}
	}
	for _, c := range []struct {
		draws        int
		objects, top float64 // allocations, and the bytes they may not exceed
	}{
		{0, 2, 512},
		{12, 2, 512},
		{32, 2, 512},
		{33, 3, 512 + 1024},
		{128, 3, 512 + 1024},
		{129, 4, 512 + 8192},
		{2000, 4, 512 + 8192},
	} {
		if got := testing.AllocsPerRun(100, draw(c.draws)); got != c.objects {
			t.Errorf("a stream drawing %d values: %v allocations, want %v", c.draws, got, c.objects)
		}
		if got := bytesPerRun(100, draw(c.draws)); got > c.top {
			t.Errorf("a stream drawing %d values: %v bytes, want at most %v", c.draws, got, c.top)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes, in size classes as the
// allocator hands them out.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func BenchmarkSourceUint64(b *testing.B) {
	lazy, std := seeded(9)
	for _, c := range []struct {
		name string
		src  rand.Source64
	}{{"lazy", lazy}, {"mathrand", std}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < 2*rngLen; i++ {
				c.src.Uint64()
			}
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += c.src.Uint64()
			}
			_ = sink
		})
	}
}
