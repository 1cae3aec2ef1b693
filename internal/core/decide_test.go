package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func cands(rates ...float64) []Candidate {
	var out []Candidate
	for i, r := range rates {
		out = append(out, Candidate{ID: i, Rate: r})
	}
	return out
}

func TestGreedySwapsOnAnyImprovement(t *testing.T) {
	in := DecideInput{
		Active:   cands(100, 200),
		Spare:    []Candidate{{ID: 10, Rate: 101}},
		IterTime: 60,
		SwapTime: 1000, // enormous cost: greedy does not care
	}
	swaps := Greedy().Decide(in)
	if len(swaps) != 1 {
		t.Fatalf("greedy made %d swaps, want 1", len(swaps))
	}
	if swaps[0].Out.ID != 0 || swaps[0].In.ID != 10 {
		t.Fatalf("greedy swapped %+v", swaps[0])
	}
}

func TestGreedyNoSwapWhenNoImprovement(t *testing.T) {
	in := DecideInput{
		Active:   cands(100, 200),
		Spare:    []Candidate{{ID: 10, Rate: 100}}, // equal, not better
		IterTime: 60,
		SwapTime: 1,
	}
	if swaps := Greedy().Decide(in); len(swaps) != 0 {
		t.Fatalf("greedy swapped with no improvement: %+v", swaps)
	}
}

func TestSwapsSlowestForFastest(t *testing.T) {
	in := DecideInput{
		Active:   cands(300, 100, 200),
		Spare:    []Candidate{{ID: 10, Rate: 250}, {ID: 11, Rate: 400}},
		IterTime: 60,
		SwapTime: 1,
	}
	swaps := Greedy().Decide(in)
	if len(swaps) != 2 {
		t.Fatalf("got %d swaps, want 2", len(swaps))
	}
	// Slowest active (rate 100) gets the fastest spare (rate 400).
	if swaps[0].Out.Rate != 100 || swaps[0].In.Rate != 400 {
		t.Fatalf("first swap = %+v", swaps[0])
	}
	// Second-slowest (200) gets the second-fastest (250).
	if swaps[1].Out.Rate != 200 || swaps[1].In.Rate != 250 {
		t.Fatalf("second swap = %+v", swaps[1])
	}
}

func TestSwapStopsWhenSpareNotFaster(t *testing.T) {
	in := DecideInput{
		Active:   cands(100, 390),
		Spare:    []Candidate{{ID: 10, Rate: 400}, {ID: 11, Rate: 350}},
		IterTime: 60,
		SwapTime: 1,
	}
	swaps := Greedy().Decide(in)
	if len(swaps) != 1 {
		t.Fatalf("got %d swaps, want 1 (350 < 390)", len(swaps))
	}
}

func TestSafeRequiresBigImprovement(t *testing.T) {
	// 15% improvement, below safe's 20% threshold.
	in := DecideInput{
		Active:   cands(100),
		Spare:    []Candidate{{ID: 10, Rate: 115}},
		IterTime: 600,
		SwapTime: 0.1,
	}
	if swaps := Safe().Decide(in); len(swaps) != 0 {
		t.Fatalf("safe accepted a 15%% improvement: %+v", swaps)
	}
	// 30% improvement with trivial payback: accepted.
	in.Spare[0].Rate = 130
	if swaps := Safe().Decide(in); len(swaps) != 1 {
		t.Fatalf("safe rejected a 30%% improvement")
	}
}

func TestSafeRejectsLongPayback(t *testing.T) {
	// Enormous improvement but swap cost equal to the iteration time:
	// payback >= 1 > 0.5, so safe must refuse.
	in := DecideInput{
		Active:   cands(100),
		Spare:    []Candidate{{ID: 10, Rate: 10000}},
		IterTime: 60,
		SwapTime: 60,
	}
	if swaps := Safe().Decide(in); len(swaps) != 0 {
		t.Fatalf("safe accepted payback > threshold: %+v", swaps)
	}
	// Same improvement with a cheap swap: accepted.
	in.SwapTime = 1
	if swaps := Safe().Decide(in); len(swaps) != 1 {
		t.Fatal("safe rejected a cheap, large swap")
	}
}

func TestFriendlyRequiresAppImprovement(t *testing.T) {
	// Swapping a non-bottleneck process does not improve the app (its
	// performance is set by the slowest member), so friendly refuses
	// where greedy accepts.
	in := DecideInput{
		Active:   cands(100, 300),
		Spare:    []Candidate{{ID: 10, Rate: 101}},
		IterTime: 60,
		SwapTime: 1,
	}
	gSwaps := Greedy().Decide(in)
	if len(gSwaps) != 1 {
		t.Fatalf("greedy swaps = %d", len(gSwaps))
	}
	// The 100→101 swap improves the app by only 1%, under friendly's 2%.
	if swaps := Friendly().Decide(in); len(swaps) != 0 {
		t.Fatalf("friendly hoarded a fast processor: %+v", swaps)
	}
	// A swap that lifts the bottleneck by 50% clears the 2% threshold.
	in.Spare[0].Rate = 150
	if swaps := Friendly().Decide(in); len(swaps) != 1 {
		t.Fatal("friendly rejected a truly beneficial swap")
	}
}

func TestFriendlySecondSwapMustStillHelpApp(t *testing.T) {
	// First swap lifts the bottleneck hugely; the second would improve
	// its process by only 1.67%, which moves the application bottleneck
	// by under friendly's 2% — friendly must stop at one swap.
	in := DecideInput{
		Active:   cands(100, 300),
		Spare:    []Candidate{{ID: 10, Rate: 500}, {ID: 11, Rate: 305}},
		IterTime: 60,
		SwapTime: 1,
	}
	swaps := Friendly().Decide(in)
	if len(swaps) != 1 {
		t.Fatalf("friendly made %d swaps, want 1 (second gains only 1.67%%)", len(swaps))
	}
	// Greedy happily takes both.
	if swaps := Greedy().Decide(in); len(swaps) != 2 {
		t.Fatalf("greedy made %d swaps, want 2", len(swaps))
	}
}

func TestDecideNoSpares(t *testing.T) {
	in := DecideInput{Active: cands(100), IterTime: 60, SwapTime: 1}
	if swaps := Greedy().Decide(in); len(swaps) != 0 {
		t.Fatal("swapped with no spares")
	}
}

func TestDecideDeterministicTieBreak(t *testing.T) {
	in := DecideInput{
		Active:   []Candidate{{ID: 5, Rate: 100}, {ID: 2, Rate: 100}},
		Spare:    []Candidate{{ID: 9, Rate: 200}, {ID: 4, Rate: 200}},
		IterTime: 60,
		SwapTime: 1,
	}
	for i := 0; i < 10; i++ {
		swaps := Greedy().Decide(in)
		if len(swaps) != 2 {
			t.Fatalf("got %d swaps", len(swaps))
		}
		if swaps[0].Out.ID != 2 || swaps[0].In.ID != 4 {
			t.Fatalf("tie-break not by ID: %+v", swaps[0])
		}
	}
}

func TestDecidePanicsOnBadInput(t *testing.T) {
	for _, in := range []DecideInput{
		{Active: cands(1), IterTime: 0, SwapTime: 1},
		{Active: cands(1), IterTime: 10, SwapTime: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			Greedy().Decide(in)
		}()
	}
}

func TestDecideDoesNotMutateInput(t *testing.T) {
	active := cands(300, 100)
	spare := []Candidate{{ID: 10, Rate: 400}}
	Greedy().Decide(DecideInput{Active: active, Spare: spare, IterTime: 60, SwapTime: 1})
	if active[0].Rate != 300 || active[1].Rate != 100 {
		t.Fatal("Decide mutated Active")
	}
}

// Property: swaps returned by any policy always strictly improve each
// swapped process and never exceed the spare pool, and the same input
// always yields the same decision.
func TestDecideProperties(t *testing.T) {
	st := rng.NewSource(77).Stream("decide")
	policies := []Policy{Greedy(), Safe(), Friendly()}
	f := func(nA, nS uint8, itRaw, swRaw uint16) bool {
		na := int(nA%8) + 1
		ns := int(nS % 8)
		var active, spare []Candidate
		for i := 0; i < na; i++ {
			active = append(active, Candidate{ID: i, Rate: st.Uniform(50, 800)})
		}
		for i := 0; i < ns; i++ {
			spare = append(spare, Candidate{ID: 100 + i, Rate: st.Uniform(50, 800)})
		}
		in := DecideInput{
			Active:   active,
			Spare:    spare,
			IterTime: float64(itRaw%600) + 1,
			SwapTime: float64(swRaw % 300),
		}
		for _, p := range policies {
			s1 := p.Decide(in)
			s2 := p.Decide(in)
			if len(s1) != len(s2) {
				return false
			}
			if len(s1) > ns {
				return false
			}
			usedIn := map[int]bool{}
			usedOut := map[int]bool{}
			for i, sw := range s1 {
				if s2[i] != sw {
					return false
				}
				if sw.In.Rate <= sw.Out.Rate {
					return false
				}
				if sw.ProcGain <= p.MinProcImprovement {
					return false
				}
				if sw.Payback > p.PaybackThreshold {
					return false
				}
				if usedIn[sw.In.ID] || usedOut[sw.Out.ID] {
					return false // a host used twice
				}
				usedIn[sw.In.ID] = true
				usedOut[sw.Out.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomBoundary draws one boundary for the decision properties: 1-8
// actives and 0-8 spares whose rates are spread, or clustered on three
// levels so that ties leave the order to the IDs, and a positive
// iteration time and swap cost.
func randomBoundary(st *rng.Stream, nA, nS uint8, itRaw, swRaw uint16, clustered bool) DecideInput {
	rate := func() float64 {
		if clustered {
			return float64(100 * (1 + st.Intn(3)))
		}
		return st.Uniform(50, 800)
	}
	in := DecideInput{IterTime: float64(itRaw%600) + 1, SwapTime: float64(swRaw%300) + 0.01}
	for i := 0; i < int(nA%8)+1; i++ {
		in.Active = append(in.Active, Candidate{ID: i, Rate: rate()})
	}
	for i := 0; i < int(nS%9); i++ {
		in.Spare = append(in.Spare, Candidate{ID: 100 + i, Rate: rate()})
	}
	return in
}

// Property: no policy proposes a pair whose payback distance Beneficial
// rejects; every policy's gates are at least as strict. The swap cost is
// positive, as the cost model's latency makes it: a free swap pays back
// at distance 0, which Beneficial does not count as a benefit.
func TestDecideProposesOnlyBeneficialPairs(t *testing.T) {
	st := rng.NewSource(31).Stream("beneficial")
	proposed := 0
	f := func(nA, nS uint8, itRaw, swRaw uint16, clustered bool) bool {
		in := randomBoundary(st, nA, nS, itRaw, swRaw, clustered)
		for _, p := range []Policy{Greedy(), Safe(), Friendly()} {
			for _, pair := range p.Decide(in) {
				proposed++
				if !Beneficial(pair.Payback) {
					t.Logf("%s proposed %+v on %+v", p.Name, pair, in)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
	if proposed < 100 {
		t.Fatalf("only %d pairs proposed: the property was barely exercised", proposed)
	}
}

// Property: the order candidates arrive in does not matter. Deciding on
// any permutation of an input returns the pairs and the Explanation that
// deciding on its Ordered view does.
func TestDecideOnAnyPermutationEqualsOrdered(t *testing.T) {
	st := rng.NewSource(32).Stream("permutation")
	swapped := 0
	f := func(nA, nS uint8, itRaw, swRaw uint16, clustered bool) bool {
		in := randomBoundary(st, nA, nS, itRaw, swRaw, clustered)
		ordered := in.Ordered(nil)
		perm := in
		perm.Active = append([]Candidate(nil), in.Active...)
		perm.Spare = append([]Candidate(nil), in.Spare...)
		st.Shuffle(len(perm.Active), func(i, j int) { perm.Active[i], perm.Active[j] = perm.Active[j], perm.Active[i] })
		st.Shuffle(len(perm.Spare), func(i, j int) { perm.Spare[i], perm.Spare[j] = perm.Spare[j], perm.Spare[i] })
		for _, p := range []Policy{Greedy(), Safe(), Friendly()} {
			pairs, exp := p.DecideExplained(ordered)
			ppairs, pexp := p.DecideExplained(perm)
			if !reflect.DeepEqual(pairs, ppairs) || exp != pexp {
				t.Logf("%s on %v %v: %v %+v\non Ordered: %v %+v", p.Name, perm.Active, perm.Spare, ppairs, pexp, pairs, exp)
				return false
			}
			if len(pairs) > 0 {
				swapped++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Fatal(err)
	}
	if swapped < 100 {
		t.Fatalf("only %d decisions swapped: the property was barely exercised", swapped)
	}
}

func TestBottleneckAppPerf(t *testing.T) {
	if got := BottleneckAppPerf([]float64{3, 1, 2}); got != 1 {
		t.Fatalf("BottleneckAppPerf = %g", got)
	}
	if got := BottleneckAppPerf(nil); got != 0 {
		t.Fatalf("BottleneckAppPerf(nil) = %g", got)
	}
}

func TestDecideRelocationGreedy(t *testing.T) {
	in := RelocateInput{
		OldRates: []float64{100, 200},
		NewRates: []float64{300, 200},
		IterTime: 60,
		Overhead: 30,
	}
	ok, payback := Greedy().DecideRelocation(in)
	if !ok {
		t.Fatal("greedy refused a beneficial relocation")
	}
	// App perf 100 → 200 (bottleneck), payback = (30/60)/(1-0.5) = 1.
	if math.Abs(payback-1) > 1e-12 {
		t.Fatalf("payback = %g, want 1", payback)
	}
}

func TestDecideRelocationRefusesWorse(t *testing.T) {
	in := RelocateInput{
		OldRates: []float64{100, 200},
		NewRates: []float64{90, 400}, // bottleneck got worse
		IterTime: 60,
		Overhead: 1,
	}
	if ok, _ := Greedy().DecideRelocation(in); ok {
		t.Fatal("relocation accepted despite worse bottleneck")
	}
}

func TestDecideRelocationSafePaybackGate(t *testing.T) {
	in := RelocateInput{
		OldRates: []float64{100},
		NewRates: []float64{200},
		IterTime: 60,
		Overhead: 120, // payback = 2/(1-0.5) = 4 > 0.5
	}
	if ok, _ := Safe().DecideRelocation(in); ok {
		t.Fatal("safe accepted a slow-payback relocation")
	}
	in.Overhead = 10 // payback = (10/60)/0.5 = 1/3 <= 0.5
	if ok, _ := Safe().DecideRelocation(in); !ok {
		t.Fatal("safe refused a quick-payback relocation")
	}
}

func TestDecideRelocationSafeProcGate(t *testing.T) {
	in := RelocateInput{
		OldRates: []float64{100},
		NewRates: []float64{110}, // 10% < safe's 20%
		IterTime: 60,
		Overhead: 0.1,
	}
	if ok, _ := Safe().DecideRelocation(in); ok {
		t.Fatal("safe accepted an improvement below its process threshold")
	}
}

func TestDecideRelocationFriendlyAppGate(t *testing.T) {
	in := RelocateInput{
		OldRates: []float64{100, 100},
		NewRates: []float64{101, 100}, // 1% app gain < 2%
		IterTime: 60,
		Overhead: 1,
	}
	if ok, _ := Friendly().DecideRelocation(in); ok {
		t.Fatal("friendly accepted a 1% app improvement")
	}
}

func TestDecideRelocationMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Greedy().DecideRelocation(RelocateInput{
		OldRates: []float64{1}, NewRates: []float64{1, 2}, IterTime: 1,
	})
}

func TestDecideRelocationEmpty(t *testing.T) {
	if ok, _ := Greedy().DecideRelocation(RelocateInput{IterTime: 1}); ok {
		t.Fatal("empty relocation accepted")
	}
}
