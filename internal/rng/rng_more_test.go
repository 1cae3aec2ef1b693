package rng

import (
	"math"
	"sort"
	"testing"
)

func TestNormalMoments(t *testing.T) {
	st := NewSource(20).Stream("n")
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := st.Normal(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("Normal mean = %g", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance = %g", variance)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	st := NewSource(21).Stream("s")
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	st.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("shuffle lost elements: %v", xs)
		}
	}
}

func TestIntnRange(t *testing.T) {
	st := NewSource(22).Stream("i")
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := st.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) missed values: %v", seen)
	}
}

func TestUniformInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSource(1).Stream("u").Uniform(2, 1)
}

func TestGeometricBadProbabilityPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%g) did not panic", p)
				}
			}()
			NewSource(1).Stream("g").Geometric(p)
		}()
	}
}

func TestGeometricTailDecay(t *testing.T) {
	// P(X > k) = (1-p)^k: check the tail roughly halves per step at
	// p=0.5.
	st := NewSource(23).Stream("g")
	const n = 100000
	over1, over2 := 0, 0
	for i := 0; i < n; i++ {
		v := st.Geometric(0.5)
		if v > 1 {
			over1++
		}
		if v > 2 {
			over2++
		}
	}
	r1 := float64(over1) / n // want ~0.5
	r2 := float64(over2) / n // want ~0.25
	if math.Abs(r1-0.5) > 0.01 || math.Abs(r2-0.25) > 0.01 {
		t.Fatalf("tail probabilities %g, %g", r1, r2)
	}
}
