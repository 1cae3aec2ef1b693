package swaprt_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/swaprt"
)

// The swap manager's decision core: measurements in, swap directives out.
// Host 12 (a spare) is predicted much faster than host 3 (the slowest
// active), so the greedy policy orders the swap.
func ExampleLocalDecider_Decide() {
	d := swaprt.NewLocalDecider(core.Greedy())
	resp, err := d.Decide(swaprt.DecideRequest{
		Now:         60,
		ActiveSet:   []int{3, 5},
		ActiveRates: []float64{120e6, 480e6},
		SpareSet:    []int{12, 14},
		SpareRates:  []float64{700e6, 90e6},
		IterTime:    130,
		SwapTime:    0.17,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, s := range resp.Swaps {
		fmt.Printf("swap out rank on host %d, swap in host %d\n", s.Out, s.In)
	}
	// Output:
	// swap out rank on host 3, swap in host 12
}
