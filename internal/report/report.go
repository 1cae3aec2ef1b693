// Package report turns the reproduction into a falsifiable artifact: it
// encodes the paper's qualitative claims — who wins, by roughly what
// factor, where the crossovers fall — as programmatic checks over the
// regenerated figures, and renders a pass/fail report. `swapexp -check`
// runs the whole battery.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/experiment"
	"repro/internal/loadgen"
	"repro/internal/rng"
)

// Claim is one falsifiable statement from the paper, checked against a
// reproduced figure.
type Claim struct {
	ID        string
	Figure    string // figure the claim is checked against
	Statement string // the paper's claim, quoted or closely paraphrased
	// Check returns nil when the reproduced figure supports the claim,
	// or an error describing the violation.
	Check func(fig *experiment.FigureResult) error
	// CheckModel, set instead of Check, checks a claim about a load model
	// on the model itself, drawn at the battery's base seed; the claim's
	// figure is one illustration of the model, too short to decide it.
	CheckModel func(seed int64) error
}

// peakLoad is the most competing processes m puts on any of hosts hosts
// within horizon seconds, drawn as the first repetition of a sweep cell
// at seed draws its environment.
func peakLoad(m loadgen.Model, seed int64, hosts int, horizon float64) int {
	src := rng.NewSource(seed)
	peak := 0
	for h := 0; h < hosts; h++ {
		tr := loadgen.NewTrace(m.NewSource(src, h))
		for t := 0.0; t < horizon; t = tr.NextChange(t) {
			peak = max(peak, tr.ValueAt(t))
		}
	}
	return peak
}

// overlaps checks that m puts two or more competing processes on one
// processor at once: on some host of the studies' 32 within a day.
func overlaps(m loadgen.Model, seed int64) error {
	if peak := peakLoad(m, seed, 32, 24*3600); peak < 2 {
		return fmt.Errorf("%s: at most %d competitor on any of 32 hosts over 24 h", m.Describe(), peak)
	}
	return nil
}

// ratioBest returns min over x of a/b — series a's best advantage.
func ratioBest(fig *experiment.FigureResult, a, b string) float64 {
	best := math.Inf(1)
	for i := range fig.X {
		if r := fig.Get(a, i).Mean / fig.Get(b, i).Mean; r < best {
			best = r
		}
	}
	return best
}

// ratioWorst returns max over x of a/b.
func ratioWorst(fig *experiment.FigureResult, a, b string) float64 {
	worst := math.Inf(-1)
	for i := range fig.X {
		if r := fig.Get(a, i).Mean / fig.Get(b, i).Mean; r > worst {
			worst = r
		}
	}
	return worst
}

// Claims returns the full battery, in paper order.
func Claims() []Claim {
	return []Claim{
		{
			ID:        "payback-worked-example",
			Figure:    "fig1",
			Statement: "With iteration and swap time both 10 s and doubled performance, the payback distance is 2 iterations; progress curves cross exactly there.",
			Check: func(fig *experiment.FigureResult) error {
				if pb := fig.Get("payback_iters", 0).Mean; pb != 2 {
					return fmt.Errorf("payback = %g, want 2", pb)
				}
				for i, x := range fig.X {
					if x == 50 {
						d := fig.Get("swap", i).Mean - fig.Get("no-swap", i).Mean
						if math.Abs(d) > 1e-9 {
							return fmt.Errorf("curves do not cross at t=50 (gap %g)", d)
						}
						return nil
					}
				}
				return fmt.Errorf("no sample at t=50")
			},
		},
		{
			ID:        "onoff-binary",
			Figure:    "fig2",
			Statement: "The ON/OFF source produces CPU load alternating between idle and exactly one competing process.",
			Check: func(fig *experiment.FigureResult) error {
				for i, c := range fig.Cells["load"] {
					if c.Mean != 0 && c.Mean != 1 {
						return fmt.Errorf("sample %d = %g", i, c.Mean)
					}
				}
				return nil
			},
		},
		{
			ID:         "hyperexp-overlap",
			Figure:     "fig3",
			Statement:  "The hyperexponential model allows multiple simultaneous competing processes per processor.",
			CheckModel: func(seed int64) error { return overlaps(loadgen.NewHyperExp(300), seed) },
		},
		{
			ID:        "fig4-quiescent-equal",
			Figure:    "fig4",
			Statement: "In quiescent environments, there is little difference between the techniques.",
			Check: func(fig *experiment.FigureResult) error {
				n0 := fig.Get("none", 0).Mean
				for _, s := range []string{"swap", "dlb", "cr"} {
					if r := fig.Get(s, 0).Mean / n0; r < 0.9 || r > 1.1 {
						return fmt.Errorf("%s/none = %g at the quiescent end", s, r)
					}
				}
				return nil
			},
		},
		{
			ID:        "fig4-moderate-benefit",
			Figure:    "fig4",
			Statement: "In moderately dynamic environments, DLB, CR and SWAP all perform better than doing nothing (up to ~40% better).",
			Check: func(fig *experiment.FigureResult) error {
				for _, s := range []string{"swap", "dlb", "cr"} {
					if best := ratioBest(fig, s, "none"); best > 0.9 {
						return fmt.Errorf("%s never beat none by 10%% (best ratio %.2f)", s, best)
					}
				}
				if best := ratioBest(fig, "swap", "none"); best > 0.8 {
					return fmt.Errorf("swap's peak benefit only %.0f%%", (1-best)*100)
				}
				return nil
			},
		},
		{
			ID:        "fig4-chaotic-converge",
			Figure:    "fig4",
			Statement: "In highly dynamic environments the techniques tend to converge: the environment is too chaotic for any technique to do well.",
			Check: func(fig *experiment.FigureResult) error {
				last := len(fig.X) - 1
				n := fig.Get("none", last).Mean
				for _, s := range []string{"swap", "dlb", "cr"} {
					if r := fig.Get(s, last).Mean / n; r < 0.7 || r > 1.3 {
						return fmt.Errorf("%s/none = %.2f at the chaotic end", s, r)
					}
				}
				return nil
			},
		},
		{
			ID:        "fig5-overallocation",
			Figure:    "fig5",
			Statement: "Swapping performs better with more over-allocation; substantial benefit requires ~100% over-allocation.",
			Check: func(fig *experiment.FigureResult) error {
				cells := fig.Cells["swap"]
				if cells[0].Mean <= cells[len(cells)-1].Mean {
					return fmt.Errorf("swap did not improve with over-allocation")
				}
				// Find the 100% point: substantial (>=10%) benefit vs none by then.
				for i, x := range fig.X {
					if x >= 100 {
						r := fig.Get("swap", i).Mean / fig.Get("none", i).Mean
						if r > 0.95 {
							return fmt.Errorf("swap/none = %.2f at 100%% over-allocation", r)
						}
						return nil
					}
				}
				return fmt.Errorf("no 100%% point in the sweep")
			},
		},
		{
			ID:        "fig5-dlb-beats-none",
			Figure:    "fig5",
			Statement: "DLB consistently outperforms doing nothing.",
			Check: func(fig *experiment.FigureResult) error {
				bad := 0
				for i := range fig.X {
					if fig.Get("dlb", i).Mean > fig.Get("none", i).Mean*1.02 {
						bad++
					}
				}
				if bad > 1 {
					return fmt.Errorf("dlb worse than none at %d/%d points", bad, len(fig.X))
				}
				return nil
			},
		},
		{
			ID:        "fig6-process-size",
			Figure:    "fig6",
			Statement: "SWAP and CR transition from beneficial at 1 MB process state to harmful at 1 GB.",
			Check: func(fig *experiment.FigureResult) error {
				if best := ratioBest(fig, "swap-1MB", "none"); best > 0.9 {
					return fmt.Errorf("swap-1MB never clearly beneficial (best %.2f)", best)
				}
				if worst := ratioWorst(fig, "swap-1GB", "none"); worst < 1.1 {
					return fmt.Errorf("swap-1GB never clearly harmful (worst %.2f)", worst)
				}
				if worst := ratioWorst(fig, "cr-1GB", "none"); worst < 1.1 {
					return fmt.Errorf("cr-1GB never clearly harmful (worst %.2f)", worst)
				}
				return nil
			},
		},
		{
			ID:        "fig7-greedy-peak",
			Figure:    "fig7",
			Statement: "The greedy policy provides the largest performance boost in moderately dynamic environments (safe and friendly trail it there).",
			Check: func(fig *experiment.FigureResult) error {
				bestGreedy := ratioBest(fig, "greedy", "none")
				if bestGreedy > 0.92 {
					return fmt.Errorf("greedy's best ratio only %.2f", bestGreedy)
				}
				// In the moderate regime (0 < p <= 0.1) greedy must lead
				// at every point; in chaos it is allowed (expected!) to
				// lose — that is the fig7-safe-in-chaos claim.
				for i, x := range fig.X {
					if x <= 0 || x > 0.1 {
						continue
					}
					g := fig.Get("greedy", i).Mean
					for _, s := range []string{"safe", "friendly"} {
						if fig.Get(s, i).Mean < g*0.99 {
							return fmt.Errorf("%s beat greedy at moderate p=%g", s, x)
						}
					}
				}
				return nil
			},
		},
		{
			ID:        "fig7-safe-in-chaos",
			Figure:    "fig7",
			Statement: "In chaotic environments the safe policy outperforms the greedy policy.",
			Check: func(fig *experiment.FigureResult) error {
				last := len(fig.X) - 1
				if fig.Get("safe", last).Mean >= fig.Get("greedy", last).Mean {
					return fmt.Errorf("safe (%.0f) did not beat greedy (%.0f) at the chaotic end",
						fig.Get("safe", last).Mean, fig.Get("greedy", last).Mean)
				}
				return nil
			},
		},
		{
			ID:        "fig8-only-safe",
			Figure:    "fig8",
			Statement: "When the process size becomes large (swap time ~2x iteration time), only the safe policy is appropriate; greedy chases unobtainable performance and the application spends its time swapping.",
			Check: func(fig *experiment.FigureResult) error {
				for i := range fig.X {
					ds := fig.Get("safe", i).Mean - fig.Get("none", i).Mean
					if math.Abs(ds) > 1e-6*fig.Get("none", i).Mean {
						return fmt.Errorf("safe differs from none at x=%g", fig.X[i])
					}
				}
				last := len(fig.X) - 1
				if r := fig.Get("greedy", last).Mean / fig.Get("none", last).Mean; r < 1.3 {
					return fmt.Errorf("greedy only %.2fx worse than none in chaos", r)
				}
				return nil
			},
		},
		{
			ID:        "fig9-hyperexp-viable",
			Figure:    "fig9",
			Statement: "Swapping remains viable under the hyperexponential load model, and the heavier tail widens the range over which it is beneficial.",
			Check: func(fig *experiment.FigureResult) error {
				for i := 1; i < len(fig.X); i++ {
					if fig.Get("swap", i).Mean >= fig.Get("none", i).Mean {
						return fmt.Errorf("swap not beneficial at lifetime %g", fig.X[i])
					}
				}
				first := fig.Get("none", 0).Mean - fig.Get("swap", 0).Mean
				last := fig.Get("none", len(fig.X)-1).Mean - fig.Get("swap", len(fig.X)-1).Mean
				if last <= first {
					return fmt.Errorf("benefit did not grow with lifetime (%g -> %g)", first, last)
				}
				return nil
			},
		},
		{
			ID:        "ext-reclamation-escape",
			Figure:    "ext-reclamation",
			Statement: "(Extension) Under resource reclamation, swapping escapes reclaimed hosts while doing nothing strands processes on them.",
			Check: func(fig *experiment.FigureResult) error {
				last := len(fig.X) - 1
				if fig.Get("none", last).Mean < 3*fig.Get("swap", last).Mean {
					return fmt.Errorf("none (%.0f) did not dwarf swap (%.0f)",
						fig.Get("none", last).Mean, fig.Get("swap", last).Mean)
				}
				return nil
			},
		},
	}
}

// Result is one evaluated claim.
type Result struct {
	Claim Claim
	Err   error
}

// Run regenerates the needed figures once and evaluates every claim,
// writing a markdown report. It returns the number of passed and failed
// claims. generatedAt stamps the report header; the zero time omits the
// stamp, which keeps the output byte-for-byte reproducible (callers that
// want a wall-clock stamp, like swapexp, pass one in — this package never
// reads the clock itself).
func Run(opt experiment.Options, generatedAt time.Time, w io.Writer) (passed, failed int, err error) {
	claims := Claims()
	needed := map[string]bool{}
	for _, c := range claims {
		needed[c.Figure] = true
	}
	gens := experiment.All()
	for id, gen := range experiment.Extensions() {
		gens[id] = gen
	}
	figs := map[string]*experiment.FigureResult{}
	ids := make([]string, 0, len(needed))
	for id := range needed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		gen, ok := gens[id]
		if !ok {
			return 0, 0, fmt.Errorf("report: no generator for figure %q", id)
		}
		figs[id] = gen(opt)
	}

	seed := opt.BaseSeed
	if seed == 0 {
		seed = experiment.Defaults().BaseSeed
	}
	results := make([]Result, len(claims))
	for i, c := range claims {
		results[i] = Result{Claim: c}
		if c.CheckModel != nil {
			results[i].Err = c.CheckModel(seed)
		} else {
			results[i].Err = c.Check(figs[c.Figure])
		}
		if results[i].Err == nil {
			passed++
		} else {
			failed++
		}
	}

	fmt.Fprintf(w, "# Reproduction check — Policies for Swapping MPI Processes (HPDC 2003)\n\n")
	if generatedAt.IsZero() {
		fmt.Fprintf(w, "%d/%d claims hold.\n\n", passed, len(claims))
	} else {
		fmt.Fprintf(w, "Generated %s. %d/%d claims hold.\n\n", generatedAt.Format(time.RFC3339), passed, len(claims))
	}
	fmt.Fprintf(w, "| status | claim | figure | paper statement | detail |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|\n")
	for _, r := range results {
		status, detail := "PASS", ""
		if r.Err != nil {
			status, detail = "FAIL", r.Err.Error()
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
			status, r.Claim.ID, r.Claim.Figure, r.Claim.Statement, detail)
	}
	return passed, failed, nil
}
