package loadgen

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestOnOffStationaryOccupancy(t *testing.T) {
	// The fraction of time in the ON state must converge to p/(p+q).
	for _, tc := range []struct{ p, q float64 }{
		{0.3, 0.08}, {0.1, 0.1}, {0.8, 0.2},
	} {
		m := OnOff{P: tc.p, Q: tc.q, Step: 1}
		src := m.NewSource(rng.NewSource(11), 0)
		tr := NewTrace(src)
		const horizon = 500000.0
		got := tr.MeanLoad(0, horizon)
		want := tc.p / (tc.p + tc.q)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("OnOff(p=%g,q=%g) occupancy = %.4f, want %.4f", tc.p, tc.q, got, want)
		}
	}
}

func TestOnOffSojournMeans(t *testing.T) {
	m := OnOff{P: 0.3, Q: 0.08, Step: 2}
	src := m.NewSource(rng.NewSource(5), 0)
	var onSum, offSum float64
	var onN, offN int
	for i := 0; i < 20000; i++ {
		seg := src.Next()
		if seg.N == 1 {
			onSum += seg.Dur
			onN++
		} else {
			offSum += seg.Dur
			offN++
		}
	}
	// Mean ON sojourn = Step/Q, mean OFF = Step/P.
	if got, want := onSum/float64(onN), 2.0/0.08; math.Abs(got-want)/want > 0.05 {
		t.Errorf("mean ON sojourn = %g, want %g", got, want)
	}
	if got, want := offSum/float64(offN), 2.0/0.3; math.Abs(got-want)/want > 0.05 {
		t.Errorf("mean OFF sojourn = %g, want %g", got, want)
	}
}

func TestOnOffLevelsAreBinary(t *testing.T) {
	src := NewOnOff(0.5).NewSource(rng.NewSource(3), 7)
	for i := 0; i < 1000; i++ {
		seg := src.Next()
		if seg.N != 0 && seg.N != 1 {
			t.Fatalf("ON/OFF produced level %d", seg.N)
		}
		if seg.Dur <= 0 {
			t.Fatalf("non-positive duration %g", seg.Dur)
		}
	}
}

func TestOnOffZeroP(t *testing.T) {
	// p=0: never loaded once OFF. Stationary start is OFF with certainty.
	src := OnOff{P: 0, Q: 0.08, Step: 1}.NewSource(rng.NewSource(1), 0)
	tr := NewTrace(src)
	if tr.ValueAt(0) != 0 || tr.ValueAt(1e6) != 0 {
		t.Fatal("OnOff with p=0 produced load")
	}
}

func TestOnOffDeterministicPerHost(t *testing.T) {
	a := NewOnOff(0.3).NewSource(rng.NewSource(9), 4)
	b := NewOnOff(0.3).NewSource(rng.NewSource(9), 4)
	c := NewOnOff(0.3).NewSource(rng.NewSource(9), 5)
	differ := false
	for i := 0; i < 100; i++ {
		sa, sb, sc := a.Next(), b.Next(), c.Next()
		if sa != sb {
			t.Fatalf("same host/seed differs at segment %d", i)
		}
		if sa != sc {
			differ = true
		}
	}
	if !differ {
		t.Fatal("hosts 4 and 5 produced identical load traces")
	}
}

func TestHyperExpMeanLifetime(t *testing.T) {
	m := NewHyperExp(120)
	if math.Abs(m.Mean()-120) > 1e-9 {
		t.Fatalf("constructed mean = %g, want 120", m.Mean())
	}
}

func TestHyperExpOfferedLoad(t *testing.T) {
	// Mean number of live competitors must approach
	// arrivalRate * meanLifetime (Little's law).
	m := NewHyperExp(100)
	src := m.NewSource(rng.NewSource(21), 0)
	tr := NewTrace(src)
	const horizon = 2e6
	got := tr.MeanLoad(0, horizon)
	want := m.ArrivalProb / m.Step * m.Mean()
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("mean competitors = %g, want %g (±10%%)", got, want)
	}
}

func TestHyperExpAllowsMultipleCompetitors(t *testing.T) {
	m := NewHyperExp(2000) // long lifetimes: overlaps are certain
	src := m.NewSource(rng.NewSource(2), 0)
	tr := NewTrace(src)
	sawMulti := false
	for t2 := 0.0; t2 < 200000; t2 += 50 {
		if tr.ValueAt(t2) > 1 {
			sawMulti = true
			break
		}
	}
	if !sawMulti {
		t.Fatal("hyperexponential model never produced overlapping competitors")
	}
}

func TestConstantSource(t *testing.T) {
	tr := NewTrace(Constant{N: 3}.NewSource(nil, 0))
	if tr.ValueAt(0) != 3 || tr.ValueAt(1e9) != 3 {
		t.Fatal("Constant source wrong")
	}
	if got := tr.MeanAvail(0, 100); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("MeanAvail = %g, want 0.25", got)
	}
}

func TestReplaySource(t *testing.T) {
	m := Replay{Segments: []Segment{{Dur: 10, N: 0}, {Dur: 5, N: 2}}, Tail: 1}
	tr := NewTrace(m.NewSource(nil, 0))
	cases := []struct {
		t float64
		n int
	}{{0, 0}, {9.99, 0}, {10, 2}, {14.99, 2}, {15, 1}, {1e6, 1}}
	for _, c := range cases {
		if got := tr.ValueAt(c.t); got != c.n {
			t.Errorf("ValueAt(%g) = %d, want %d", c.t, got, c.n)
		}
	}
}

func TestAggregateSumsLevels(t *testing.T) {
	m := Aggregate{Models: []Model{Constant{N: 1}, Constant{N: 2}}}
	tr := NewTrace(m.NewSource(rng.NewSource(1), 0))
	if tr.ValueAt(50) != 3 {
		t.Fatalf("aggregate level = %d, want 3", tr.ValueAt(50))
	}
}

func TestAggregateOnOffMeans(t *testing.T) {
	// Sum of two independent ON/OFF sources: mean load is the sum of the
	// individual stationary means.
	m := Aggregate{Models: []Model{NewOnOff(0.3), NewOnOff(0.3)}}
	tr := NewTrace(m.NewSource(rng.NewSource(33), 0))
	got := tr.MeanLoad(0, 1e6)
	want := 2 * 0.3 / (0.3 + 0.08)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("aggregate mean load = %g, want %g", got, want)
	}
}

func TestReclaimModel(t *testing.T) {
	m := Reclaim{Prob: 1, Horizon: 100, Level: 49}
	src := rng.NewSource(5)
	tr := NewTrace(m.NewSource(src, 0))
	if tr.ValueAt(1e6) != 49 {
		t.Fatal("reclaimed host never reached the reclaim level")
	}
	// Before some point it must have been idle.
	if tr.ValueAt(0) != 0 && tr.ValueAt(1e-9) != 0 {
		// reclamation at t≈0 is possible but astronomically unlikely for
		// this seed; accept either but check the change point exists
		t.Logf("host reclaimed immediately")
	}
	// Prob 0: never reclaimed.
	m0 := Reclaim{Prob: 0, Horizon: 100, Level: 49}
	tr0 := NewTrace(m0.NewSource(rng.NewSource(5), 1))
	if tr0.ValueAt(1e6) != 0 {
		t.Fatal("unreclaimed host got load")
	}
}

func TestReclaimFrequency(t *testing.T) {
	m := Reclaim{Prob: 0.3, Horizon: 1000, Level: 10}
	src := rng.NewSource(77)
	hit := 0
	const hosts = 2000
	for h := 0; h < hosts; h++ {
		tr := NewTrace(m.NewSource(src, h))
		if tr.ValueAt(2000) == 10 {
			hit++
		}
	}
	frac := float64(hit) / hosts
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("reclaim fraction = %g, want ~0.3", frac)
	}
}

func TestReclaimBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Reclaim{Prob: 2, Horizon: 1}.NewSource(rng.NewSource(1), 0)
}

func TestTraceValueMatchesSegments(t *testing.T) {
	src := NewOnOff(0.4).NewSource(rng.NewSource(17), 1)
	tr := NewTrace(src)
	starts, vals := tr.Segments(10000)
	for i, s := range starts {
		if got := tr.ValueAt(s); got != vals[i] {
			t.Fatalf("ValueAt(start[%d]=%g) = %d, want %d", i, s, got, vals[i])
		}
	}
	// Segments must be strictly increasing in time and merged (no equal
	// neighbours).
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatalf("segment starts not increasing at %d", i)
		}
		if vals[i] == vals[i-1] {
			t.Fatalf("unmerged equal segments at %d", i)
		}
	}
}

func TestTraceNextChange(t *testing.T) {
	m := Replay{Segments: []Segment{{Dur: 10, N: 0}, {Dur: 5, N: 1}}, Tail: 0}
	tr := NewTrace(m.NewSource(nil, 0))
	if got := tr.NextChange(3); got != 10 {
		t.Fatalf("NextChange(3) = %g, want 10", got)
	}
	if got := tr.NextChange(10); got != 15 {
		t.Fatalf("NextChange(10) = %g, want 15", got)
	}
}

func TestMeanAvailProperty(t *testing.T) {
	// Property: MeanAvail is always in (0, 1], and over a window equals a
	// Riemann sum computed from ValueAt.
	src := rng.NewSource(99)
	f := func(seed int64, a, w uint16) bool {
		tr := NewTrace(NewOnOff(0.5).NewSource(src.Substream(string(rune(seed))), 0))
		t0 := float64(a % 1000)
		width := float64(w%500) + 1
		got := tr.MeanAvail(t0, t0+width)
		if got <= 0 || got > 1 {
			return false
		}
		// Riemann check with fine steps.
		const steps = 2000
		sum := 0.0
		for i := 0; i < steps; i++ {
			tt := t0 + (float64(i)+0.5)*width/steps
			sum += 1 / (1 + float64(tr.ValueAt(tt)))
		}
		return math.Abs(got-sum/steps) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMeanAvailInstantaneous(t *testing.T) {
	m := Replay{Segments: []Segment{{Dur: 10, N: 3}}, Tail: 0}
	tr := NewTrace(m.NewSource(nil, 0))
	if got := tr.MeanAvail(5, 5); got != 0.25 {
		t.Fatalf("instantaneous MeanAvail = %g, want 0.25", got)
	}
}

func TestMeanAvailClampsNegativeStart(t *testing.T) {
	tr := NewTrace(Constant{N: 0}.NewSource(nil, 0))
	if got := tr.MeanAvail(-10, 10); got != 1 {
		t.Fatalf("MeanAvail(-10,10) = %g", got)
	}
}

func TestSample(t *testing.T) {
	m := Replay{Segments: []Segment{{Dur: 10, N: 0}, {Dur: 10, N: 1}}, Tail: 0}
	tr := NewTrace(m.NewSource(nil, 0))
	s := tr.Sample(25, 5)
	want := []int{0, 0, 1, 1, 0, 0}
	if len(s) != len(want) {
		t.Fatalf("Sample = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Sample = %v, want %v", s, want)
		}
	}
}

// Sample has a point at every multiple of the step up to the horizon,
// the last one included when the quotient rounds just below an integer.
func TestSamplePoints(t *testing.T) {
	m := Replay{Segments: []Segment{{Dur: 0.15, N: 0}, {Dur: 0.1, N: 2}}, Tail: 1}
	figureSized := make([]int, 121) // fig2.csv's points: 0, 30, ..., 3600
	for i := 1; i < len(figureSized); i++ {
		figureSized[i] = 1
	}
	for _, c := range []struct {
		name              string
		horizon, interval float64
		want              []int
	}{
		{"inexact step: 0.3/0.1 rounds to 2.999...", 0.3, 0.1, []int{0, 0, 2, 1}},
		{"inexact step: 0.7/0.1 rounds to 6.999...", 0.7, 0.1, []int{0, 0, 2, 1, 1, 1, 1, 1}},
		{"inexact step short of the next point", 0.29, 0.1, []int{0, 0, 2}},
		{"exact step", 0.375, 0.125, []int{0, 0, 1, 1}},
		{"exact step, figure-sized", 3600, 30, figureSized},
		{"horizon 0", 0, 0.1, []int{0}},
		{"step larger than the horizon", 0.3, 0.5, []int{0}},
		{"negative horizon", -1, 0.1, nil},
	} {
		got := NewTrace(m.NewSource(nil, 0)).Sample(c.horizon, c.interval)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: Sample(%g, %g) = %v, want %v", c.name, c.horizon, c.interval, got, c.want)
		}
	}
}

func TestTraceNegativeTimePanics(t *testing.T) {
	tr := NewTrace(Constant{N: 0}.NewSource(nil, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("negative time did not panic")
		}
	}()
	tr.ValueAt(-1)
}

func TestTraceRandomAccessAfterForwardScan(t *testing.T) {
	// The hint-based fast path must not break random (backwards) access.
	src := NewOnOff(0.5).NewSource(rng.NewSource(8), 0)
	tr := NewTrace(src)
	fwd := make(map[float64]int)
	for t2 := 0.0; t2 < 5000; t2 += 37 {
		fwd[t2] = tr.ValueAt(t2)
	}
	for t2 := 4995.0; t2 >= 0; t2 -= 37 {
		tt := 4995.0 - t2 // revisit in shuffled-ish order
		_ = tt
	}
	for t2, want := range fwd {
		if got := tr.ValueAt(t2); got != want {
			t.Fatalf("re-read ValueAt(%g) = %d, want %d", t2, got, want)
		}
	}
}

// A trace that has been queried before — late, then early again, then
// past everything materialized — answers every query exactly as a trace
// fresh from the same source does: nothing depends on how far earlier
// queries extended it, and the hint recovers from a rewind.
func TestTraceRewindAnswersLikeAFreshTrace(t *testing.T) {
	models := map[string]Model{
		"onoff":    NewOnOff(0.3),
		"hyperexp": NewHyperExp(300), // equal neighbours merge: NextChange must look past them
		"constant": Constant{N: 2},
		"aggregate": Aggregate{Models: []Model{
			NewOnOff(0.05), Reclaim{Prob: 1, Horizon: 4000, Level: 49}}},
	}
	type answer struct {
		value      int
		next, mean float64
	}
	ask := func(tr *Trace, at float64) answer {
		return answer{tr.ValueAt(at), tr.NextChange(at), tr.MeanAvail(math.Max(0, at-300), at)}
	}
	late, early, beyond := 50000.0, 12.0, 400000.0
	for name, m := range models {
		used := NewTrace(m.NewSource(rng.NewSource(31), 3))
		for _, at := range []float64{late, early, beyond, early, late - 1, 0} {
			fresh := NewTrace(m.NewSource(rng.NewSource(31), 3))
			if got, want := ask(used, at), ask(fresh, at); got != want {
				t.Errorf("%s: at t=%g a used trace answers %+v, a fresh one %+v", name, at, got, want)
			}
		}
		// A monotone walk after the rewind: the run that replays the trace.
		fresh := NewTrace(m.NewSource(rng.NewSource(31), 3))
		for at := 0.0; at < 3000; at += 7 {
			if got, want := ask(used, at), ask(fresh, at); got != want {
				t.Fatalf("%s: walk at t=%g: used %+v, fresh %+v", name, at, got, want)
			}
		}
	}
}

// NextChange names a time at which the level really changes, not a seam
// between two equal source segments.
func TestNextChangeSkipsMergedSegments(t *testing.T) {
	m := Replay{Segments: []Segment{{Dur: 10, N: 1}, {Dur: 10, N: 1}, {Dur: 10, N: 1}, {Dur: 5, N: 0}}, Tail: 3}
	tr := NewTrace(m.NewSource(nil, 0))
	if got := tr.NextChange(3); got != 30 {
		t.Fatalf("NextChange(3) = %g, want 30", got)
	}
	if got := tr.NextChange(30); got != 35 {
		t.Fatalf("NextChange(30) = %g, want 35", got)
	}
	// The tail holds forever: no change, and no endless search for one.
	if got := tr.NextChange(40); !math.IsInf(got, 1) {
		t.Fatalf("NextChange(40) = %g inside the forever tail", got)
	}
}
