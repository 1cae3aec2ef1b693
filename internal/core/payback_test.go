package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The paper's worked example: iteration time and swap time both 10 s.
func TestPaybackPaperExamples(t *testing.T) {
	// "If the new performance, after swapping, is twice the old
	// performance then the payback distance is 2 iterations."
	if got := PaybackDistance(10, 10, 1, 2); math.Abs(got-2) > 1e-12 {
		t.Fatalf("2x speedup payback = %g, want 2", got)
	}
	// "If the new performance is four times the old performance, the
	// payback distance is 1 1/3 iterations."
	if got := PaybackDistance(10, 10, 1, 4); math.Abs(got-4.0/3.0) > 1e-12 {
		t.Fatalf("4x speedup payback = %g, want 4/3", got)
	}
}

func TestPaybackNegativeWhenSlower(t *testing.T) {
	// "If the payback distance is negative, there is no benefit."
	got := PaybackDistance(10, 10, 2, 1)
	if got >= 0 {
		t.Fatalf("payback for a slowdown = %g, want negative", got)
	}
	if Beneficial(got) {
		t.Fatal("negative payback reported beneficial")
	}
}

func TestPaybackEqualPerfIsInfinite(t *testing.T) {
	got := PaybackDistance(10, 10, 3, 3)
	if !math.IsInf(got, 1) {
		t.Fatalf("payback with no improvement = %g, want +Inf", got)
	}
	if Beneficial(got) {
		t.Fatal("infinite payback reported beneficial")
	}
}

func TestPaybackZeroSwapTime(t *testing.T) {
	if got := PaybackDistance(0, 10, 1, 2); got != 0 {
		t.Fatalf("free swap payback = %g, want 0", got)
	}
}

func TestPaybackScaleInvariance(t *testing.T) {
	// Property: payback depends only on the performance ratio.
	f := func(a, b, c uint16) bool {
		oldP := float64(a%1000) + 1
		newP := oldP + float64(b%1000) + 1
		scale := float64(c%100) + 1
		p1 := PaybackDistance(5, 20, oldP, newP)
		p2 := PaybackDistance(5, 20, oldP*scale, newP*scale)
		return math.Abs(p1-p2) < 1e-9*(1+math.Abs(p1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaybackMonotoneInSpeedup(t *testing.T) {
	// Property: the greater the performance increase, the smaller the
	// payback distance (paper, Section 5).
	f := func(a, b uint16) bool {
		n1 := 1 + float64(a%1000)/100
		n2 := n1 + float64(b%1000)/100 + 0.01
		p1 := PaybackDistance(10, 10, 1, n1)
		p2 := PaybackDistance(10, 10, 1, n2)
		return p2 < p1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the costlier the swap, the further its payback — monotone in
// swapTime: increasing for a faster host, and for a slower one, where the
// distance is negative, decreasing.
func TestPaybackMonotoneInSwapTime(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		s1 := float64(a%1000) / 10
		s2 := s1 + float64(b%1000)/10 + 0.01
		iter := float64(c%600) + 1
		newPerf := 0.1 + float64(d%1000)/100 // oldPerf is 1
		p1 := PaybackDistance(s1, iter, 1, newPerf)
		p2 := PaybackDistance(s2, iter, 1, newPerf)
		switch {
		case newPerf > 1:
			return p2 > p1
		case newPerf < 1:
			return p2 < p1
		}
		return math.IsInf(p1, 1) && math.IsInf(p2, 1)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(28))}); err != nil {
		t.Error(err)
	}
}

func TestPaybackLowerBound(t *testing.T) {
	// Property: payback >= swapTime/iterTime for any genuine improvement
	// (1/(1-r) >= 1). This is why "for SWAP to be beneficial the swap
	// time should be shorter than the application iteration time".
	f := func(a, b, c uint16) bool {
		swap := float64(a%100) + 1
		iter := float64(b%100) + 1
		speedup := 1 + float64(c%1000)/10 + 0.001
		p := PaybackDistance(swap, iter, 1, speedup)
		return p >= swap/iter-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaybackLinearInSwapTime(t *testing.T) {
	p1 := PaybackDistance(5, 10, 1, 2)
	p2 := PaybackDistance(10, 10, 1, 2)
	if math.Abs(p2-2*p1) > 1e-12 {
		t.Fatalf("payback not linear in swap time: %g vs %g", p1, p2)
	}
}

func TestPaybackPanicsOnBadInput(t *testing.T) {
	bad := [][4]float64{
		{-1, 10, 1, 2},
		{10, 0, 1, 2},
		{10, 10, 0, 2},
		{10, 10, 1, 0},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PaybackDistance(%v) did not panic", c)
				}
			}()
			PaybackDistance(c[0], c[1], c[2], c[3])
		}()
	}
}

func TestSwapTimeModel(t *testing.T) {
	// alpha + size/beta with the paper's 6 MB/s link: a 1 GB process at
	// 6 MB/s is ~167 s ("the swap time at 1 gigabyte is 170 seconds" in
	// the paper's example environment, within rounding of its alpha).
	got := SwapTime(0.0005, 6e6, 1e9)
	if math.Abs(got-166.667) > 0.1 {
		t.Fatalf("SwapTime(1GB) = %g", got)
	}
	if got := SwapTime(2, 1e6, 0); got != 2 {
		t.Fatalf("zero-size swap = %g, want latency", got)
	}
}

func TestSwapTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SwapTime(0, 0, 10)
}

func TestBeneficial(t *testing.T) {
	cases := []struct {
		p    float64
		want bool
	}{
		{1.5, true}, {0.0, false}, {-2, false}, {math.Inf(1), false},
	}
	for _, c := range cases {
		if got := Beneficial(c.p); got != c.want {
			t.Errorf("Beneficial(%g) = %v", c.p, got)
		}
	}
}
