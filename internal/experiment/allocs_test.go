package experiment

import "testing"

// One benchmark-sized sweep op — Fig. 4 and Fig. 7 at reduced size, the
// figures' 4 active + 28 spare hosts, run serially — allocates within its
// budget: a simulated run pays for its boundaries' decisions and the
// figures' cells, and not for a policy lens nobody reads nor for a new
// world per cell: the worker's environment is rebuilt in place.
func TestFiguresOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race runtime's own")
	}
	o := Options{Seeds: 3, Iterations: 15, Quick: true, Serial: true}
	got := testing.AllocsPerRun(3, func() {
		Fig4(o)
		Fig7(o)
	})
	if got > 6350 {
		t.Fatalf("Fig. 4 + Fig. 7 op: %.0f allocations, want at most 6350", got)
	}
	t.Logf("Fig. 4 + Fig. 7 op: %.0f allocations", got)
}
