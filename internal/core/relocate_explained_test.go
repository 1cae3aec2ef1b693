package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestDecideRelocationExplainedTable drives every gate of
// DecideRelocationExplained and checks three contracts per row: the
// verdict/reason name the deciding gate (parity with DecideExplained's
// vocabulary), the (ok, payback) pair is bit-identical to what plain
// DecideRelocation returns, and the Explanation stays JSON-encodable —
// the +Inf payback of an impossible relocation must live only in the
// function return, never in the struct.
func TestDecideRelocationExplainedTable(t *testing.T) {
	cases := []struct {
		name         string
		policy       Policy
		in           RelocateInput
		wantOK       bool
		wantVerdict  string
		reasonPrefix string
		wantPayback  float64 // compared when finite; math.Inf(1) asserts +Inf
	}{
		{
			name:         "empty set cannot relocate",
			policy:       Greedy(),
			in:           RelocateInput{IterTime: 10},
			wantVerdict:  "stay",
			reasonPrefix: "no processes to relocate",
			wantPayback:  math.Inf(1),
		},
		{
			name:         "non-positive iteration time",
			policy:       Greedy(),
			in:           RelocateInput{OldRates: []float64{1}, NewRates: []float64{2}},
			wantVerdict:  "stay",
			reasonPrefix: "iteration time",
			wantPayback:  math.Inf(1),
		},
		{
			name:   "new set not faster",
			policy: Greedy(),
			in: RelocateInput{OldRates: []float64{1, 2}, NewRates: []float64{1, 2},
				IterTime: 10, Overhead: 1},
			wantVerdict:  "stay",
			reasonPrefix: "new set performance",
			wantPayback:  math.Inf(1),
		},
		{
			// An aggregate perf model (sum of rates) lets the set look
			// faster while the decisive slowest-old/fastest-new pair gains
			// only 10% — under safe's 20% floor.
			name:   "safe rejects small process gain",
			policy: Safe(),
			in: RelocateInput{OldRates: []float64{1, 1}, NewRates: []float64{1.1, 1},
				IterTime: 10, Overhead: 1,
				AppPerf: func(rates []float64) float64 {
					s := 0.0
					for _, r := range rates {
						s += r
					}
					return s
				}},
			wantVerdict:  "stay",
			reasonPrefix: "process gain",
			wantPayback:  math.Inf(1),
		},
		{
			name:   "safe rejects long payback",
			policy: Safe(),
			in: RelocateInput{OldRates: []float64{1, 2}, NewRates: []float64{2, 2},
				IterTime: 10, Overhead: 100},
			wantVerdict:  "stay",
			reasonPrefix: "payback",
			wantPayback:  20, // (100/10)/(1-1/2)
		},
		{
			name:   "friendly rejects marginal app gain",
			policy: Friendly(),
			in: RelocateInput{OldRates: []float64{1, 2}, NewRates: []float64{1.01, 2},
				IterTime: 10, Overhead: 0.1},
			wantVerdict:  "stay",
			reasonPrefix: "application gain",
		},
		{
			name:   "greedy relocates on any improvement",
			policy: Greedy(),
			in: RelocateInput{OldRates: []float64{1, 2}, NewRates: []float64{2, 2},
				IterTime: 10, Overhead: 1},
			wantOK:       true,
			wantVerdict:  "relocate",
			reasonPrefix: "payback",
			wantPayback:  0.2, // (1/10)/(1-1/2)
		},
		{
			name:   "free relocation always pays",
			policy: Greedy(),
			in: RelocateInput{OldRates: []float64{1}, NewRates: []float64{2},
				IterTime: 10},
			wantOK:       true,
			wantVerdict:  "relocate",
			reasonPrefix: "payback",
			wantPayback:  0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ok, payback, exp := c.policy.DecideRelocationExplained(c.in)
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v (reason %q)", ok, c.wantOK, exp.Reason)
			}
			if exp.Verdict != c.wantVerdict {
				t.Fatalf("verdict = %q, want %q", exp.Verdict, c.wantVerdict)
			}
			if !strings.HasPrefix(exp.Reason, c.reasonPrefix) {
				t.Fatalf("reason = %q, want prefix %q", exp.Reason, c.reasonPrefix)
			}
			if math.IsInf(c.wantPayback, 1) {
				if !math.IsInf(payback, 1) {
					t.Fatalf("payback = %g, want +Inf", payback)
				}
				if exp.Payback != 0 {
					t.Fatalf("infinite payback leaked into Explanation: %g", exp.Payback)
				}
			} else if c.wantPayback != 0 && math.Abs(payback-c.wantPayback) > 1e-12 {
				t.Fatalf("payback = %g, want %g", payback, c.wantPayback)
			}

			// Parity: the plain form must be exactly the explained form
			// minus the explanation.
			pok, ppayback := c.policy.DecideRelocation(c.in)
			if pok != ok || !sameFloat(ppayback, payback) {
				t.Fatalf("DecideRelocation = (%v, %g), explained = (%v, %g)",
					pok, ppayback, ok, payback)
			}

			// The explanation rides SwapDecision-style events; it must
			// survive encoding/json, which rejects Inf and NaN.
			if _, err := json.Marshal(exp); err != nil {
				t.Fatalf("explanation not JSON-encodable: %v", err)
			}
		})
	}
}

// DecideRelocation is DecideRelocationExplained without the words: the
// same verdict and the same payback, on the inputs where reading only
// the slowest old and fastest new rate could go wrong — equal sets, ties,
// a process gain exactly at the minimum, free and never-paying moves, and
// an application model that is not the bottleneck — and on random sets.
// Under the bottleneck model it allocates nothing.
func TestQuietRelocationEqualsExplained(t *testing.T) {
	sum := func(rates []float64) float64 {
		s := 0.0
		for _, r := range rates {
			s += r
		}
		return s
	}
	edge := Policy{Name: "edge", PaybackThreshold: math.Inf(1), MinProcImprovement: 0.5}
	policies := []Policy{Greedy(), Safe(), Friendly(), ablated(), edge}
	relocated, stayed := 0, 0
	same := func(in RelocateInput) bool {
		for _, p := range policies {
			ok, payback := p.DecideRelocation(in)
			eok, epayback, exp := p.DecideRelocationExplained(in)
			if ok != eok || !sameFloat(payback, epayback) {
				t.Logf("%s on %+v: quiet (%v, %g), explained (%v, %g) %q", p.Name, in, ok, payback, eok, epayback, exp.Reason)
				return false
			}
			if ok {
				relocated++
			} else {
				stayed++
			}
			if !raceEnabled && in.AppPerf == nil {
				if n := testing.AllocsPerRun(20, func() { p.DecideRelocation(in) }); n != 0 {
					t.Logf("%s on %+v: %v allocs", p.Name, in, n)
					return false
				}
			}
		}
		return true
	}
	for _, c := range []struct {
		name string
		in   RelocateInput
	}{
		{"equal sets", RelocateInput{OldRates: []float64{3, 1, 2}, NewRates: []float64{1, 2, 3}, IterTime: 10, Overhead: 1}},
		{"ties", RelocateInput{OldRates: []float64{2, 1, 1}, NewRates: []float64{2, 2, 2}, IterTime: 10, Overhead: 1}},
		{"gain at the minimum", RelocateInput{OldRates: []float64{2, 4}, NewRates: []float64{3, 4}, IterTime: 10, Overhead: 1}},
		{"gain just above the minimum", RelocateInput{OldRates: []float64{2, 4}, NewRates: []float64{3.0000001, 4}, IterTime: 10, Overhead: 1}},
		{"zero overhead", RelocateInput{OldRates: []float64{1, 2}, NewRates: []float64{2, 2}, IterTime: 10}},
		{"+Inf payback", RelocateInput{OldRates: []float64{2, 2}, NewRates: []float64{1, 3}, IterTime: 10, Overhead: 1}},
		{"no processes", RelocateInput{IterTime: 10, Overhead: 1}},
		{"sum of rates", RelocateInput{OldRates: []float64{1, 1}, NewRates: []float64{1.1, 1}, IterTime: 10, Overhead: 0.1, AppPerf: sum}},
		{"sum of rates, slower newcomer", RelocateInput{OldRates: []float64{2, 2}, NewRates: []float64{1, 4}, IterTime: 10, Overhead: 0.1, AppPerf: sum}},
	} {
		if !same(c.in) {
			t.Errorf("%s: the quiet and explained relocations disagree", c.name)
		}
	}

	st := rng.NewSource(47).Stream("relocate")
	f := func(n uint8, itRaw, ovRaw uint16, clustered, bySum bool) bool {
		in := RelocateInput{IterTime: float64(itRaw%600) + 1, Overhead: float64(ovRaw%300) / 10}
		if bySum {
			in.AppPerf = sum
		}
		rate := func() float64 {
			if clustered { // many ties between and within the sets
				return float64(100 * (1 + st.Intn(3)))
			}
			return st.Uniform(50, 800)
		}
		for i := 0; i < 1+int(n%8); i++ {
			in.OldRates = append(in.OldRates, rate())
			in.NewRates = append(in.NewRates, rate())
		}
		return same(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if relocated < 100 || stayed < 100 {
		t.Fatalf("inputs too one-sided to mean anything: %d relocations, %d stays", relocated, stayed)
	}
}

// sameFloat compares floats treating same-signed infinities as equal.
func sameFloat(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return a == b
}
