package strategy

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/loadgen"
)

// TestResultsGolden pins whole runs: every technique over ON-OFF and
// hyperexponential load, with and without per-iteration communication and
// process state, must reproduce its Result — makespan, every iteration
// record, every event, the final placement, the swap count and the
// boundary overhead — to the last bit of every float. It covers what the
// figure CSVs average away: the event order inside a run. Regenerate
// deliberately with: go test ./internal/strategy -run ResultsGolden
// -update-golden
func TestResultsGolden(t *testing.T) {
	got := resultsReport()
	golden := filepath.Join("testdata", "results_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("results diverged from golden at line %d (regenerate with -update-golden if intended)\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("results diverged from golden: %d lines, want %d", len(gl), len(wl))
	}
}

// resultsReport runs the golden grid and prints every Result in full.
func resultsReport() string {
	models := []struct {
		name  string
		model loadgen.Model
	}{
		{"onoff", loadgen.NewOnOff(0.3)},
		{"hyperexp", loadgen.NewHyperExp(300)},
	}
	var b strings.Builder
	for _, tech := range []Technique{None{}, Swap{}, DLB{}, CR{}} {
		for _, env := range models {
			for _, comm := range []float64{0, 1e6} {
				for _, state := range []float64{0, 1e6} {
					a := app.Default(10).WithComm(comm).WithState(state)
					res := tech.Run(testPlatform(8, env.model, 63), Scenario{Active: 3, App: a})
					fmt.Fprintf(&b, "== %s %s comm=%s state=%s\n", tech.Name(), env.name, full(comm), full(state))
					writeResult(&b, res)
				}
			}
		}
	}
	return b.String()
}

func writeResult(b *strings.Builder, res Result) {
	fmt.Fprintf(b, "total %s swaps %d overhead %s final %v\n",
		full(res.TotalTime), res.Swaps, full(res.Overhead), res.FinalHosts)
	for _, it := range res.Iters {
		fmt.Fprintf(b, "iter %d start %s compute %s end %s overhead %s hosts %v\n",
			it.Index, full(it.Start), full(it.ComputeDone), full(it.End), full(it.Overhead), it.Hosts)
	}
	for _, e := range res.Events {
		fmt.Fprintf(b, "event %s %s iter %d payback %s gain %s: %s\n",
			full(e.T), e.Kind, e.Iter, full(e.Payback), full(e.Gain), e.Detail())
	}
}

func full(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
