package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

// TestTreeIsClean is the driver test: the full analyzer suite over the real
// module must report zero findings. This is the same invariant `make lint`
// enforces; a failure here means a change reintroduced wall-clock time in
// the simulator, blocking I/O under a lock, a deadline-free socket
// operation, or a silently dropped MPI error.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := loader().LoadModule("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; go list pattern broken?", len(pkgs))
	}
	total := 0
	for _, pkg := range pkgs {
		for _, f := range analysis.RunAll(analysis.All(), pkg) {
			t.Errorf("%s", f)
			total++
		}
	}
	if total > 0 {
		t.Fatalf("%d findings on the real tree; run `make lint` and fix or justify with //swapvet:ignore", total)
	}
}
