package policylens

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// A Boundary decides exactly as its policy does, whether or not a lens
// listens, leaves its caller's candidates in the order they came, and
// hands the lens the input it decided on: the shadow of its own policy
// agrees on every decision.
func TestBoundaryDecidesAsItsPolicyAndAuditsThat(t *testing.T) {
	st := rng.NewSource(9).Stream("boundary")
	for _, pol := range []core.Policy{core.Greedy(), core.Safe(), core.Friendly()} {
		audited := Boundary{Policy: pol, Lens: New(Config{})}
		bare := Boundary{Policy: pol}
		for i := 0; i < 200; i++ {
			in := core.DecideInput{IterTime: st.Uniform(5, 200), SwapTime: st.Uniform(0, 40)}
			for a := 0; a < 1+st.Intn(4); a++ {
				in.Active = append(in.Active, core.Candidate{ID: a, Rate: st.Uniform(50, 400)})
			}
			for s := 0; s < st.Intn(8); s++ {
				in.Spare = append(in.Spare, core.Candidate{ID: 10 + s, Rate: st.Uniform(50, 800)})
			}
			raw := append(append([]core.Candidate(nil), in.Active...), in.Spare...)
			wantPairs, wantExp := pol.DecideExplained(in)
			for _, b := range []*Boundary{&audited, &bare} {
				pairs, exp := b.Decide(float64(i), uint64(i), in, true)
				if !reflect.DeepEqual(pairs, wantPairs) || exp != wantExp {
					t.Fatalf("%s, decision %d: boundary decided %v (%+v), policy %v (%+v)",
						pol.Name, i, pairs, exp, wantPairs, wantExp)
				}
			}
			if !slices.Equal(raw, append(append([]core.Candidate(nil), in.Active...), in.Spare...)) {
				t.Fatalf("%s, decision %d: the boundary reordered its caller's candidates", pol.Name, i)
			}
		}
		rep := audited.Lens.Report()
		if rep.Decisions != 200 {
			t.Fatalf("%s: lens saw %d decisions, want 200", pol.Name, rep.Decisions)
		}
		for _, s := range rep.Shadow {
			if s.Policy == pol.Name && s.Agreements != 200 {
				t.Errorf("%s: own-policy shadow agreed on %d of 200 decisions", pol.Name, s.Agreements)
			}
		}
	}
}

// Record hands the lens a pick the policy's pairing did not make: the
// lens counts the decision and replays its shadows, with nothing to arm.
func TestBoundaryRecordAuditsAPick(t *testing.T) {
	b := Boundary{Policy: core.Greedy(), Lens: New(Config{})}
	b.Record(1, 0, swapInput(), 1)
	rep := b.Lens.Report()
	if rep.Decisions != 1 || rep.ShadowDecisions() != 3 || rep.Tracking != 0 {
		t.Fatalf("report after one recorded pick: %+v", rep)
	}
}
