package rng

import (
	"fmt"
	"testing"
)

// matchStreams draws n values from got and want through every helper the
// load models use and fails on the first that differs.
func matchStreams(t *testing.T, what string, got, want *Stream, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		var g, w float64
		switch k % 4 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = float64(got.Geometric(0.3)), float64(want.Geometric(0.3))
		case 2:
			g, w = got.Exp(75), want.Exp(75)
		default:
			g, w = got.Uniform(200e6, 800e6), want.Uniform(200e6, 800e6)
		}
		if g != w {
			t.Fatalf("%s: draw %d is %v, want %v", what, k, g, w)
		}
	}
}

func indexed(src *Source, prefix string, i int) *Stream {
	st := new(Stream)
	src.ReseedIndexed(st, prefix, i)
	return st
}

func drain(st *Stream, n int) {
	for k := 0; k < n; k++ {
		st.Float64()
	}
}

// An indexed stream is the stream of its formatted name, draw for draw,
// whether it is derived fresh or re-seeded over a stream that has drawn
// past math/rand's 607-word ring.
func TestIndexedStreamMatchesNamed(t *testing.T) {
	src := NewSource(20030623)
	used := src.Stream("used")
	for _, prefix := range []string{"onoff-host-", "hyperexp-host-", ""} {
		for i := 0; i < 1000; i++ {
			name := fmt.Sprintf("%s%d", prefix, i)
			matchStreams(t, name, indexed(src, prefix, i), src.Stream(name), 12)
			if i%97 == 0 {
				drain(used, 700)
				src.ReseedIndexed(used, prefix, i)
				matchStreams(t, "re-seeded "+name, used, src.Stream(name), 650)
				src.Reseed(used, name)
				matchStreams(t, "re-seeded by name "+name, used, src.Stream(name), 40)
			}
		}
	}
	for _, i := range []int{-1, -607, 1 << 40, -1 << 63} {
		name := fmt.Sprintf("h%d", i)
		matchStreams(t, name, indexed(src, "h", i), src.Stream(name), 12)
	}
}

// Re-seeding reuses what the stream holds: no allocation once its
// history has reached the full ring.
func TestReseedAllocations(t *testing.T) {
	src := NewSource(7)
	st := indexed(src, "onoff-host-", 3)
	drain(st, 700)
	allocs := testing.AllocsPerRun(50, func() {
		src.ReseedIndexed(st, "onoff-host-", 4)
		drain(st, 700)
	})
	if allocs != 0 {
		t.Fatalf("re-seeding a grown stream and drawing 700 values: %v allocations, want 0", allocs)
	}
}

func FuzzIndexedStreamMatchesNamed(f *testing.F) {
	f.Add(int64(20030623), "onoff-host-", 31, uint16(20))
	f.Add(int64(-1), "", -5, uint16(700))
	f.Add(int64(0), "agg-\x00-", 1<<62, uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, prefix string, i int, draws uint16) {
		src := NewSource(seed)
		name := fmt.Sprintf("%s%d", prefix, i)
		matchStreams(t, name, indexed(src, prefix, i), src.Stream(name), int(draws))
		st := src.Stream(prefix)
		drain(st, int(draws))
		src.ReseedIndexed(st, prefix, i)
		matchStreams(t, "re-seeded "+name, st, src.Stream(name), int(draws))
	})
}
