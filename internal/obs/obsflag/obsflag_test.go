package obsflag

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestParseRanks(t *testing.T) {
	got, err := ParseRanks("0, 2,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("ParseRanks = %v", got)
	}
	if _, err := ParseRanks("1,x"); err == nil {
		t.Fatal("bad rank accepted")
	}
	if _, err := ParseRanks("-1"); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestTracerNilWhenNoOutput(t *testing.T) {
	f := &Flags{}
	tr, err := f.Tracer(4)
	if err != nil || tr != nil {
		t.Fatalf("Tracer = %v, %v; want nil, nil", tr, err)
	}
}

func TestTracerRejectsOutOfWorldRank(t *testing.T) {
	f := &Flags{TraceOut: "x.json", Ranks: "7"}
	if _, err := f.Tracer(4); err == nil {
		t.Fatal("rank 7 in a 4-rank world accepted")
	}
}

func TestRegisterAndWrite(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.json")
	eventsPath := filepath.Join(dir, "run.jsonl")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{
		"-trace-out", tracePath, "-events-out", eventsPath, "-trace-ranks", "0",
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := f.Tracer(2)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled() {
		t.Fatal("tracer not enabled")
	}
	tr.Emit(obs.Event{Kind: obs.KindIterStart, Rank: 0, T: 0})
	tr.Emit(obs.Event{Kind: obs.KindIterStart, Rank: 1, T: 0}) // filtered out
	tr.Emit(obs.Event{Kind: obs.KindIterEnd, Rank: 0, T: 1, Value: 1})
	if err := f.Write(tr, nil); err != nil {
		t.Fatal(err)
	}

	raw, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	entries, err := obs.ValidateChromeTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	// 2 metadata tracks (rank 0, rank 1) + runtime track + B + E; the
	// filtered rank-1 event must not appear.
	var slices int
	for _, e := range entries {
		if ph, _ := e["ph"].(string); ph == "B" || ph == "E" {
			slices++
			if tid, _ := e["tid"].(float64); int(tid) != 0 {
				t.Fatalf("filtered rank leaked into trace: %v", e)
			}
		}
	}
	if slices != 2 {
		t.Fatalf("iteration slices = %d, want 2", slices)
	}
	if st, err := os.Stat(eventsPath); err != nil || st.Size() == 0 {
		t.Fatalf("events file missing or empty: %v", err)
	}
}

// TestTelemetryFlags pins the shared telemetry flag spelling and
// defaults, and the -metrics-out dump.
func TestTelemetryFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Telemetry || f.MetricsOut != "" {
		t.Fatalf("defaults: %+v", f)
	}

	fs2 := flag.NewFlagSet("x", flag.ContinueOnError)
	f2 := Register(fs2)
	out := filepath.Join(t.TempDir(), "metrics.prom")
	if err := fs2.Parse([]string{"-telemetry", "-metrics-out", out}); err != nil {
		t.Fatal(err)
	}
	if !f2.Telemetry || f2.MetricsOut != out {
		t.Fatalf("parsed: %+v", f2)
	}
	reg := obs.NewRegistry()
	reg.Counter("swaprt.swaps").Add(2)
	if err := f2.WriteMetrics(reg, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "swaprt_swaps 2") {
		t.Fatalf("dump missing metric:\n%s", data)
	}
	// No file requested: no-op, no error.
	if err := (&Flags{}).WriteMetrics(reg, nil); err != nil {
		t.Fatal(err)
	}
}
