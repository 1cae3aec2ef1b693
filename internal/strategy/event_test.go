package strategy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/loadgen"
)

// The event lines of `swapsim -tech <t> -hosts 8 -active 3 -iters 8
// -seed 63 -state 2e8 -trace`, recorded while Event still carried a
// Detail string formatted at the boundary: Detail() words startup, swap,
// relocation and rebalance events character for character as that did.
func TestEventDetailText(t *testing.T) {
	a := app.Iterative{Iterations: 8, WorkPerProcIter: 120 * app.RefSpeed, BytesPerIter: 1e6, StateBytes: 2e8}
	sc := Scenario{Active: 3, App: a, Policy: core.Greedy()}
	for _, c := range []struct {
		tech Technique
		want string
	}{
		{Swap{}, `
       6.0  startup    8 processes
     410.8  swap       iter 0: rank 2 host 6 -> 7 (payback 0.11, gain 255%)
     410.8  swap       iter 0: rank 1 host 0 -> 2 (payback 0.29, gain 40%)
     726.4  swap       iter 1: rank 1 host 2 -> 0 (payback 0.21, gain 186%)
     927.3  swap       iter 2: rank 1 host 0 -> 1 (payback 1.20, gain 20%)
    1264.7  swap       iter 3: rank 1 host 1 -> 0 (payback 0.16, gain 234%)
    1437.0  swap       iter 4: rank 1 host 0 -> 2 (payback 0.84, gain 40%)
    1728.9  swap       iter 5: rank 1 host 2 -> 0 (payback 0.20, gain 186%)
    1728.9  swap       iter 5: rank 2 host 7 -> 6 (payback 1.14, gain 13%)
    2130.0  swap       iter 6: rank 2 host 6 -> 7 (payback 0.23, gain 77%)
`},
		{CR{}, `
       6.0  startup    8 processes
     410.8  checkpoint iter 0: relocate [5 0 6] -> [5 7 2] (payback 0.76)
     924.5  checkpoint iter 1: relocate [5 7 2] -> [7 5 1] (payback 1.56)
    1480.2  checkpoint iter 2: relocate [7 5 1] -> [2 5 1] (payback 1.93)
    2045.9  checkpoint iter 3: relocate [2 5 1] -> [5 0 7] (payback 0.86)
    2649.3  checkpoint iter 5: relocate [5 0 7] -> [0 2 5] (payback 3.40)
    3069.3  checkpoint iter 6: relocate [0 2 5] -> [7 5 0] (payback 3.09)
`},
		{DLB{}, `
       6.0  startup    8 processes
     352.3  rebalance
     573.1  rebalance
     733.8  rebalance
     913.7  rebalance
    1148.0  rebalance
    1468.2  rebalance
    1731.0  rebalance
`},
	} {
		res := c.tech.Run(testPlatform(8, loadgen.NewOnOff(0.2), 63), sc)
		var got strings.Builder
		got.WriteByte('\n')
		for _, e := range res.Events {
			// swapsim's line, less the padding it leaves after a kind
			// with no detail.
			line := fmt.Sprintf("%10.1f  %-10s %s", e.T, e.Kind, e.Detail())
			got.WriteString(strings.TrimRight(line, " ") + "\n")
			if e.Kind == EventRebalance && e.Detail() != "" {
				t.Errorf("rebalance detail %q, want none", e.Detail())
			}
		}
		if got.String() != c.want {
			t.Errorf("%s events:\n%s\nrecorded:\n%s", c.tech.Name(), got.String(), c.want)
		}
	}
}

// Iterations between which no process moved share one host list, and a
// boundary that moves one leaves the lists already recorded alone.
func TestIterRecordsShareUnchangedHosts(t *testing.T) {
	a := app.Iterative{Iterations: 8, WorkPerProcIter: 120 * app.RefSpeed, BytesPerIter: 1e6, StateBytes: 2e8}
	res := Swap{}.Run(testPlatform(8, loadgen.NewOnOff(0.2), 63), Scenario{Active: 3, App: a, Policy: core.Greedy()})
	// TestEventDetailText's swaps, applied boundary by boundary.
	want := [][]int{{5, 0, 6}, {5, 2, 7}, {5, 0, 7}, {5, 1, 7}, {5, 0, 7}, {5, 2, 7}, {5, 0, 6}, {5, 0, 7}}
	for i, it := range res.Iters {
		if fmt.Sprint(it.Hosts) != fmt.Sprint(want[i]) {
			t.Errorf("iteration %d ran on %v, want %v", i, it.Hosts, want[i])
		}
	}
	none := None{}.Run(testPlatform(8, loadgen.NewOnOff(0.2), 63), Scenario{Active: 3, App: a})
	for i, it := range none.Iters {
		if &it.Hosts[0] != &none.Iters[0].Hosts[0] {
			t.Errorf("iteration %d of a run that never moves has its own host list", i)
		}
	}
	if fmt.Sprint(res.FinalHosts) != fmt.Sprint(want[7]) {
		t.Errorf("final hosts %v, want %v", res.FinalHosts, want[7])
	}
}

// Events grows once past the startup event, to what the technique
// reserves at its first acting boundary — the most events a boundary
// appends, for every boundary left — and never again: its capacity is
// that reservation exactly, or the startup event's 1 when no boundary
// acted.
func TestEventsGrowOnce(t *testing.T) {
	a := app.Iterative{Iterations: 15, WorkPerProcIter: 120 * app.RefSpeed, BytesPerIter: 1e6, StateBytes: 1e6}
	const hosts, active = 32, 4
	perBoundary := map[string]int{"none": 0, "swap": min(active, hosts-active), "dlb": 1, "cr": 1}
	for _, p := range []float64{0, 0.05, 0.2, 0.6} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, tech := range []Technique{None{}, Swap{}, DLB{}, CR{}} {
				for _, pol := range []core.Policy{core.Greedy(), core.Safe(), core.Friendly()} {
					res := tech.Run(testPlatform(hosts, loadgen.NewOnOff(p), seed),
						Scenario{Active: active, App: a, Policy: pol})
					want := 1
					if len(res.Events) > 1 {
						want += perBoundary[tech.Name()] * (a.Iterations - 1 - res.Events[1].Iter)
					}
					if cap(res.Events) != want {
						t.Errorf("%s (%s) p=%g seed %d: %d events in capacity %d, want capacity %d",
							tech.Name(), pol.Name, p, seed, len(res.Events), cap(res.Events), want)
					}
				}
			}
		}
	}
}
