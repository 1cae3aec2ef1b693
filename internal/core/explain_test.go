package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestDecideExplainedSwap: an accepted decision explains itself with the
// headline pair's payback numbers and a "swap" verdict.
func TestDecideExplainedSwap(t *testing.T) {
	in := DecideInput{
		Active:   cands(100, 200),
		Spare:    []Candidate{{ID: 10, Rate: 400}},
		IterTime: 60,
		SwapTime: 1,
	}
	swaps, exp := Safe().DecideExplained(in)
	if len(swaps) != 1 {
		t.Fatalf("got %d swaps, want 1", len(swaps))
	}
	if exp.Verdict != "swap" {
		t.Fatalf("verdict %q, want swap: %+v", exp.Verdict, exp)
	}
	if exp.OldPerf != 100 || exp.NewPerf != 400 {
		t.Fatalf("decisive pair rates = %g/%g, want 100/400", exp.OldPerf, exp.NewPerf)
	}
	if exp.Payback != swaps[0].Payback || exp.Payback <= 0 {
		t.Fatalf("payback %g, want %g", exp.Payback, swaps[0].Payback)
	}
	if exp.IterTime != 60 || exp.SwapTime != 1 || exp.Considered != 1 {
		t.Fatalf("inputs not echoed: %+v", exp)
	}
	if !strings.Contains(exp.Reason, "payback") {
		t.Fatalf("reason %q does not name the gate", exp.Reason)
	}
	// Decide stays the thin wrapper.
	if got := Safe().Decide(in); len(got) != 1 || got[0] != swaps[0] {
		t.Fatalf("Decide disagrees with DecideExplained: %+v vs %+v", got, swaps)
	}
}

// TestDecideExplainedStay covers the rejection reasons per gate.
func TestDecideExplainedStay(t *testing.T) {
	cases := []struct {
		name   string
		pol    Policy
		in     DecideInput
		reason string
	}{
		{
			name:   "no spares",
			pol:    Greedy(),
			in:     DecideInput{Active: cands(100), IterTime: 60, SwapTime: 1},
			reason: "no spare candidates",
		},
		{
			name: "not faster",
			pol:  Greedy(),
			in: DecideInput{Active: cands(100),
				Spare: []Candidate{{ID: 10, Rate: 90}}, IterTime: 60, SwapTime: 1},
			reason: "not above active rate",
		},
		{
			name: "payback too far",
			pol:  Safe(),
			in: DecideInput{Active: cands(100),
				Spare: []Candidate{{ID: 10, Rate: 200}}, IterTime: 1, SwapTime: 1e6},
			reason: "> threshold",
		},
		{
			name: "app gain gate",
			pol:  Friendly(),
			in: DecideInput{Active: cands(100, 50),
				// A spare at 50.5 improves the bottleneck process by 1%,
				// under friendly's 2% application-gain floor.
				Spare: []Candidate{{ID: 10, Rate: 50.5}}, IterTime: 60, SwapTime: 0.001},
			reason: "application gain",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			swaps, exp := tc.pol.DecideExplained(tc.in)
			if len(swaps) != 0 {
				t.Fatalf("unexpected swaps: %+v", swaps)
			}
			if exp.Verdict != "stay" {
				t.Fatalf("verdict %q, want stay", exp.Verdict)
			}
			if !strings.Contains(exp.Reason, tc.reason) {
				t.Fatalf("reason %q does not contain %q", exp.Reason, tc.reason)
			}
		})
	}
}

// TestDecideExplainedKeepsHeadlineOnLaterRejection: when the first pair
// is accepted and a later pair rejects, the explanation stays with the
// accepted headline swap.
func TestDecideExplainedKeepsHeadlineOnLaterRejection(t *testing.T) {
	in := DecideInput{
		Active:   cands(100, 200),
		Spare:    []Candidate{{ID: 10, Rate: 400}, {ID: 11, Rate: 150}},
		IterTime: 60,
		SwapTime: 1,
	}
	swaps, exp := Safe().DecideExplained(in)
	if len(swaps) != 1 {
		t.Fatalf("got %d swaps, want 1", len(swaps))
	}
	if exp.Verdict != "swap" || exp.NewPerf != 400 {
		t.Fatalf("explanation left the headline pair: %+v", exp)
	}
	if exp.Considered != 2 {
		t.Fatalf("considered = %d, want 2", exp.Considered)
	}
}

// ablated is a policy off the named three: every gate on at once.
func ablated() Policy {
	return Policy{Name: "ablated", PaybackThreshold: 2, MinProcImprovement: 0.1,
		MinAppImprovement: 0.05, HistoryWindow: 30}
}

// Decide and DecideQuiet are DecideExplained without the words: the same
// pairs, and the same Explanation field for field, Reason aside.
func TestQuietDecideEqualsExplained(t *testing.T) {
	st := rng.NewSource(81).Stream("quiet")
	policies := []Policy{Greedy(), Safe(), Friendly(), ablated()}
	swapped, stayed := 0, 0
	f := func(nA, nS uint8, itRaw, swRaw uint16, clustered bool) bool {
		in := DecideInput{IterTime: float64(itRaw%600) + 1, SwapTime: float64(swRaw % 300)}
		rate := func() float64 {
			if clustered { // many ties: the ID tie-break decides
				return float64(100 * (1 + st.Intn(4)))
			}
			return st.Uniform(50, 800)
		}
		for i := 0; i < int(nA%9); i++ {
			in.Active = append(in.Active, Candidate{ID: i, Rate: rate()})
		}
		for i := 0; i < int(nS%30); i++ {
			in.Spare = append(in.Spare, Candidate{ID: 100 + i, Rate: rate()})
		}
		for _, p := range policies {
			quiet, numbers := p.DecideQuiet(in)
			pairs, exp := p.DecideExplained(in)
			if !reflect.DeepEqual(quiet, pairs) || !reflect.DeepEqual(p.Decide(in), pairs) {
				t.Logf("%s: DecideQuiet %v, DecideExplained %v", p.Name, quiet, pairs)
				return false
			}
			if exp.Reason == "" || numbers.Reason != "" {
				t.Logf("%s: reasons %q (explained), %q (quiet)", p.Name, exp.Reason, numbers.Reason)
				return false
			}
			if len(pairs) == 0 {
				stayed++
			} else {
				swapped++
			}
			exp.Reason = ""
			if numbers != exp {
				t.Logf("%s: quiet %+v, explained %+v", p.Name, numbers, exp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if swapped < 100 || stayed < 100 {
		t.Fatalf("inputs too one-sided to mean anything: %d swaps, %d stays", swapped, stayed)
	}
}

// One boundary's candidates are sorted once and the same view goes to
// every policy that looks at it (a primary, the lens's shadows): a
// policy decides on the ordered view exactly as on the raw input —
// pairs and every Explanation field — and neither Ordered nor a decision
// writes to the slices it was handed.
func TestOrderedViewDecidesTheSame(t *testing.T) {
	st := rng.NewSource(18).Stream("ordered")
	policies := []Policy{Greedy(), Safe(), Friendly(), ablated()}
	var buf []Candidate // reused across inputs, as the lens reuses its own
	swapped, stayed, presorted := 0, 0, 0
	f := func(nA, nS uint8, itRaw, swRaw uint16, clustered, sum, inOrder bool) bool {
		in := DecideInput{IterTime: float64(itRaw%600) + 1, SwapTime: float64(swRaw % 300)}
		if sum { // an application model that reads every rate
			in.AppPerf = func(rates []float64) float64 {
				total := 0.0
				for _, r := range rates {
					total += r
				}
				return total
			}
		}
		rate := func() float64 {
			if clustered { // many ties: the ID tie-break decides
				return float64(100 * (1 + st.Intn(3)))
			}
			return st.Uniform(50, 800)
		}
		for i := 0; i < int(nA%9); i++ {
			in.Active = append(in.Active, Candidate{ID: i, Rate: rate()})
		}
		for i := 0; i < int(nS%30); i++ {
			in.Spare = append(in.Spare, Candidate{ID: 100 + i, Rate: rate()})
		}
		if inOrder { // what a caller that sorted for its own decision hands on
			in = in.Ordered(nil)
		}
		raw := append(append([]Candidate(nil), in.Active...), in.Spare...)

		view := in.Ordered(&buf)
		lead := min(len(in.Active), len(in.Spare))
		if !leadInOrder(view.Active, lead, slowestFirst) || !leadInOrder(view.Spare, lead, fastestFirst) {
			t.Logf("Ordered(%v, %v) = %v, %v", in.Active, in.Spare, view.Active, view.Spare)
			return false
		}
		if again := view.Ordered(nil); len(view.Active) > 0 && &again.Active[0] != &view.Active[0] {
			t.Log("an ordered view was copied again")
			return false
		}
		if len(view.Active) > 0 && &view.Active[0] == &in.Active[0] {
			presorted++
		}
		seen := append(append([]Candidate(nil), view.Active...), view.Spare...)
		for _, p := range policies {
			pairs, exp := p.DecideExplained(in)
			vpairs, vexp := p.DecideExplained(view)
			if !reflect.DeepEqual(pairs, vpairs) || exp != vexp {
				t.Logf("%s on the raw input: %v %+v\non the ordered view: %v %+v", p.Name, pairs, exp, vpairs, vexp)
				return false
			}
			if len(pairs) == 0 {
				stayed++
			} else {
				swapped++
			}
		}
		if !slices.Equal(raw, append(append([]Candidate(nil), in.Active...), in.Spare...)) {
			t.Logf("input mutated: was %v, is %v %v", raw, in.Active, in.Spare)
			return false
		}
		if !slices.Equal(seen, append(append([]Candidate(nil), view.Active...), view.Spare...)) {
			t.Logf("shared view mutated: was %v, is %v %v", seen, view.Active, view.Spare)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if swapped < 100 || stayed < 100 || presorted < 100 {
		t.Fatalf("inputs too one-sided to mean anything: %d swaps, %d stays, %d already in order",
			swapped, stayed, presorted)
	}
}

// Selecting the leading min(active, spare) candidates of each side
// decides what sorting every candidate decides: against a reference that
// sorts both sides in full, the ordered view leads with the same
// candidates in the same order and holds the same candidates after them,
// and greedy, safe and friendly return the same pairs and the same
// Explanation (Considered included) — with duplicate rates, where only
// the ID tie-break separates candidates, and with more actives than
// spares, where it is the actives that are only selected.
func TestOrderedSelectionEqualsFullSort(t *testing.T) {
	st := rng.NewSource(29).Stream("selection")
	policies := []Policy{Greedy(), Safe(), Friendly()}
	swapped, stayed, partial := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		in := DecideInput{IterTime: st.Uniform(1, 600), SwapTime: st.Uniform(0, 40)}
		levels := 1 + st.Intn(6) // few distinct rates: most candidates tie
		rate := func() float64 { return float64(100 * (1 + st.Intn(levels))) }
		for i, n := 0, 1+st.Intn(8); i < n; i++ {
			in.Active = append(in.Active, Candidate{ID: i, Rate: rate()})
		}
		for i, n := 0, st.Intn(41); i < n; i++ {
			in.Spare = append(in.Spare, Candidate{ID: 100 + i, Rate: rate()})
		}
		full := in
		full.Active, full.Spare = slices.Clone(in.Active), slices.Clone(in.Spare)
		slices.SortFunc(full.Active, slowestFirst)
		slices.SortFunc(full.Spare, fastestFirst)

		view := in.Ordered(nil)
		lead := min(len(in.Active), len(in.Spare))
		if lead < len(in.Active) || lead < len(in.Spare) {
			partial++
		}
		for _, side := range []struct {
			name      string
			got, want []Candidate
			order     func(a, b Candidate) int
		}{
			{"active", view.Active, full.Active, slowestFirst},
			{"spare", view.Spare, full.Spare, fastestFirst},
		} {
			if !slices.Equal(side.got[:lead], side.want[:lead]) {
				t.Fatalf("trial %d: leading %d %s candidates %v, full sort %v",
					trial, lead, side.name, side.got[:lead], side.want[:lead])
			}
			rest := slices.Clone(side.got[lead:])
			slices.SortFunc(rest, side.order)
			if !slices.Equal(rest, side.want[lead:]) {
				t.Fatalf("trial %d: %s candidates after the lead %v, full sort %v",
					trial, side.name, side.got[lead:], side.want[lead:])
			}
		}
		for _, p := range policies {
			pairs, exp := p.DecideExplained(in)
			wantPairs, wantExp := p.DecideExplained(full)
			if !reflect.DeepEqual(pairs, wantPairs) || exp != wantExp {
				t.Fatalf("trial %d, %s on %v + %v:\n selected %v %+v\n full sort %v %+v",
					trial, p.Name, in.Active, in.Spare, pairs, exp, wantPairs, wantExp)
			}
			if len(pairs) == 0 {
				stayed++
			} else {
				swapped++
			}
		}
	}
	if swapped < 500 || stayed < 500 || partial < 500 {
		t.Fatalf("inputs too one-sided to mean anything: %d swaps, %d stays, %d inputs with candidates left unsorted",
			swapped, stayed, partial)
	}
}

// The text-free path stays cheap: on the figures' 4 active + 28 spare
// candidates a decision allocates its sorted copy of the candidates,
// once a pair reaches the application gate its rates, and its result —
// nothing per candidate or per gate, and on candidates already in
// decision order no copy either. Selecting four spares of 28 instead of
// sorting them allocates what sorting did.
func TestDecideAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race runtime's own")
	}
	in := DecideInput{IterTime: 120, SwapTime: 0.17}
	st := rng.NewSource(3).Stream("allocs")
	for i := 0; i < 4; i++ {
		in.Active = append(in.Active, Candidate{ID: i, Rate: st.Uniform(100, 400)})
	}
	for i := 0; i < 28; i++ {
		in.Spare = append(in.Spare, Candidate{ID: 4 + i, Rate: st.Uniform(100, 800)})
	}
	stay := in
	stay.Spare = nil
	for i := 0; i < 28; i++ {
		stay.Spare = append(stay.Spare, Candidate{ID: 4 + i, Rate: 50})
	}
	pol := Greedy()
	if n := len(pol.Decide(in)); n != 4 {
		t.Fatalf("greedy swaps %d of 4, want all", n)
	}
	for _, c := range []struct {
		name string
		in   DecideInput
		want float64
	}{
		// The copy, the rates; the result grows 1 → 2 → 4 pairs.
		{"swapping 4 of 4+28", in, 5},
		{"swapping 4 of 4+28, in decision order", in.Ordered(nil), 4},
		{"staying on 4+28", stay, 1},
		{"staying on 4+28, in decision order", stay.Ordered(nil), 0},
	} {
		if got := testing.AllocsPerRun(200, func() { pol.DecideQuiet(c.in) }); got != c.want {
			t.Errorf("DecideQuiet %s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}
