package report

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/loadgen"
)

func TestClaimsAreWellFormed(t *testing.T) {
	gens := experiment.All()
	for id, gen := range experiment.Extensions() {
		gens[id] = gen
	}
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Statement == "" || (c.Check == nil) == (c.CheckModel == nil) {
			t.Errorf("claim %+v incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim ID %q", c.ID)
		}
		seen[c.ID] = true
		if _, ok := gens[c.Figure]; !ok {
			t.Errorf("claim %s references unknown figure %q", c.ID, c.Figure)
		}
	}
	if len(seen) < 10 {
		t.Errorf("only %d claims; the battery should cover every figure", len(seen))
	}
}

func TestRunAllClaimsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full claim battery is a longer run")
	}
	var b strings.Builder
	opt := experiment.Options{Seeds: 4, Iterations: 25, BaseSeed: 20030623}
	passed, failed, err := Run(opt, time.Time{}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d claims failed:\n%s", failed, b.String())
	}
	if passed != len(Claims()) {
		t.Fatalf("passed %d of %d", passed, len(Claims()))
	}
	out := b.String()
	if !strings.Contains(out, "PASS") || strings.Contains(out, "FAIL") {
		t.Fatalf("report malformed:\n%s", out)
	}
}

// TestClaimsHoldAcrossSeeds runs the battery at the default repetitions
// from base seeds other than the default one: at 8 repetitions a point,
// fig5-overallocation and fig7-greedy-peak failed at 10 of base seeds
// 1–40, and the default holds at all 40.
func TestClaimsHoldAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("four full claim batteries")
	}
	for _, seed := range []int64{experiment.Defaults().BaseSeed, 2, 4, 16} {
		var b strings.Builder
		if _, failed, err := Run(experiment.Options{BaseSeed: seed}, time.Time{}, &b); err != nil || failed != 0 {
			t.Errorf("base seed %d: %d claims failed (err %v):\n%s", seed, failed, err, b.String())
		}
	}
}

// TestEveryClaimCanFail corrupts each claim's figure so that the check
// must reject it — a claim that cannot fail verifies nothing.
func TestEveryClaimCanFail(t *testing.T) {
	gens := experiment.All()
	for id, gen := range experiment.Extensions() {
		gens[id] = gen
	}
	opt := experiment.Options{Seeds: 2, Iterations: 12, BaseSeed: 20030623, Quick: true}
	cache := map[string]*experiment.FigureResult{}
	for _, c := range Claims() {
		if _, ok := cache[c.Figure]; !ok {
			cache[c.Figure] = gens[c.Figure](opt)
		}
	}
	corrupt := func(src *experiment.FigureResult) *experiment.FigureResult {
		out := &experiment.FigureResult{
			ID: src.ID, Title: src.Title, XLabel: src.XLabel, YLabel: src.YLabel,
			Series: src.Series, X: src.X, Cells: map[string][]experiment.Cell{},
		}
		for s, cells := range src.Cells {
			cp := append([]experiment.Cell(nil), cells...)
			out.Cells[s] = cp
		}
		if src.ID == "fig2" {
			// The ON/OFF trace: a flat 0.5 level is not binary.
			for _, s := range out.Series {
				for i := range out.Cells[s] {
					out.Cells[s][i].Mean = 0.5
				}
			}
			return out
		}
		// Scramble: invert every series around a pivot and scale some,
		// destroying orderings, equalities and level sets at once.
		for si, s := range out.Series {
			for i := range out.Cells[s] {
				v := out.Cells[s][i].Mean
				out.Cells[s][i].Mean = 1e4 + float64(si*1000) - v/2 + float64(i%3)*777
			}
		}
		return out
	}
	for _, c := range Claims() {
		if c.CheckModel != nil {
			continue // checked on another model: TestHyperExpOverlapHoldsAcrossSeeds
		}
		if err := c.Check(corrupt(cache[c.Figure])); err == nil {
			t.Errorf("claim %s passed on a scrambled figure — it cannot fail", c.ID)
		}
	}
}

func TestRunRendersFailures(t *testing.T) {
	// Run with absurdly tiny runs so at least one claim fails, proving
	// the FAIL path of the report renderer. (A 2-iteration app with one
	// seed cannot reproduce the paper's shapes reliably; if by luck all
	// pass, skip.)
	var b strings.Builder
	opt := experiment.Options{Seeds: 1, Iterations: 2, BaseSeed: 1, Quick: true}
	_, failed, err := Run(opt, time.Time{}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if failed == 0 {
		t.Skip("tiny run happened to satisfy every claim")
	}
	if !strings.Contains(b.String(), "FAIL") {
		t.Fatalf("failures not rendered:\n%s", b.String())
	}
}

func TestFailingClaimIsReported(t *testing.T) {
	// Inject a figure that violates a claim by checking against a claim
	// directly (unit-level: the Check functions are plain functions).
	fig := experiment.Fig1(experiment.Options{})
	// Corrupt the payback series.
	fig.Cells["payback_iters"][0].Mean = 3
	var claim Claim
	for _, c := range Claims() {
		if c.ID == "payback-worked-example" {
			claim = c
		}
	}
	if err := claim.Check(fig); err == nil {
		t.Fatal("corrupted figure passed the claim check")
	} else if !errors.Is(err, err) { // sanity: err is a real error value
		t.Fatal("bad error")
	}
}

// TestHyperExpOverlapHoldsAcrossSeeds: the hyperexponential model puts
// two or more competitors on one processor at every base seed, where one
// host's hour of Fig. 3 did not at 17 of these 40; and the check keeps
// its power, failing on the ON/OFF model, whose level never exceeds one.
func TestHyperExpOverlapHoldsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if err := overlaps(loadgen.NewHyperExp(300), seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := overlaps(loadgen.NewOnOff(0.3), seed); err == nil {
			t.Errorf("seed %d: the ON/OFF model passed the overlap check", seed)
		}
	}
}
