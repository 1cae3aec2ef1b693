package strategy

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// TestAnalyzeGolden pins `tracecheck -analyze` end to end: a fixed-seed
// simulated Swap run's JSONL trace must analyze to a byte-identical
// report. The sim runs on a virtual clock, so the trace — and therefore
// every number in the report — is fully deterministic; any diff here is
// a real behavior change in the simulator, the tracer, or the analyzer.
// Regenerate deliberately with: go test ./internal/strategy -run
// AnalyzeGolden -update-golden
func TestAnalyzeGolden(t *testing.T) {
	res, events := tracedSwapRun(63)
	if res.Swaps == 0 {
		t.Fatal("seed 63 no longer swaps; pick a seed that exercises attribution")
	}

	// Round-trip through the JSONL file format, exactly as tracecheck does.
	tr := obs.New(4)
	tr.Enable()
	for _, ev := range events {
		tr.Emit(ev)
	}
	var jb strings.Builder
	if err := tr.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ReadJSONL(strings.NewReader(jb.String()))
	if err != nil {
		t.Fatal(err)
	}

	var rep strings.Builder
	if err := obs.Analyze(parsed).WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	got := rep.String()
	// The two-directive round shares the link: both transfers take its
	// whole pause, so their durations sum to twice what the round paid.
	if want := "t=1652.73 directives=2 payback=0.100217 predicted=16.6677s paid=16.6672s actual=33.3343s"; !strings.Contains(got, want) {
		t.Errorf("report lacks %q: the round's record must state its paid time", want)
	}

	golden := filepath.Join("testdata", "analyze_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("analysis report diverged from golden (regenerate with -update-golden if intended)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A second full pipeline run must reproduce the report byte for byte.
	_, events2 := tracedSwapRun(63)
	var rep2 strings.Builder
	if err := obs.Analyze(events2).WriteReport(&rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.String() != got {
		t.Error("re-run analysis differs: pipeline not deterministic")
	}
}
