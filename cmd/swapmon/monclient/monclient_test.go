package monclient

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs/series"
	"repro/internal/swaprt"
)

// sampleReport mirrors what a live hub serves: two local ranks (one
// with an anomaly), a quarantined spare, an open-then-recovered
// circuit, and a decision history with payback distances.
func sampleReport() swaprt.TelemetryReport {
	return swaprt.TelemetryReport{
		Now:         12.5,
		Epoch:       2,
		ActiveSet:   []int{0, 3},
		Quarantined: []int{2},
		Circuit:     "half-open",
		Ranks: []swaprt.RankTelemetry{
			{Rank: 3, Now: 12.5, Iters: 40, IterTime: series.Quantiles{N: 40, Mean: 0.02, P50: 0.02, P90: 0.021, P99: 0.022, Max: 0.025}, Rate: 980},
			{Rank: 0, Now: 12.5, Iters: 42,
				IterTime:  series.Quantiles{N: 42, Mean: 0.05, P50: 0.02, P90: 0.16, P99: 0.17, Max: 0.18},
				Rate:      120,
				Anomalies: 2,
				LastAnomaly: &series.Anomaly{
					T: 10.2, Value: 0.18, Mean: 0.02, Std: 0.004, Z: 40,
				}},
		},
		Decisions: swaprt.DecisionTelemetry{
			Count: 9, SwapVerdicts: 2, Swaps: 1, Aborts: 1,
			Payback:     series.Quantiles{N: 2, Mean: 4, P50: 3, P90: 5, P99: 5, Max: 5},
			Latency:     series.Quantiles{N: 9, Mean: 0.001, P50: 0.0008, P90: 0.002, P99: 0.003, Max: 0.003},
			LastVerdict: "swap", LastReason: "payback", LastPayback: 5,
		},
	}
}

func TestFetch(t *testing.T) {
	rep := sampleReport()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/telemetry" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(rep); err != nil {
			t.Errorf("encode: %v", err)
		}
	}))
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	got, err := Fetch(srv.Client(), addr)
	if err != nil {
		t.Fatalf("Fetch(%q): %v", addr, err)
	}
	if got.Epoch != rep.Epoch || len(got.Ranks) != 2 || got.Decisions.Swaps != 1 {
		t.Fatalf("Fetch round-trip mismatch: %+v", got)
	}
	if got.Ranks[1].Rank != 0 && got.Ranks[0].Rank != 0 {
		t.Fatalf("missing rank 0 in %+v", got.Ranks)
	}

	// Full URL form is used as-is.
	if _, err := Fetch(srv.Client(), srv.URL+"/telemetry"); err != nil {
		t.Fatalf("Fetch(full URL): %v", err)
	}

	// Non-200 is an error, not a zero report.
	if _, err := Fetch(srv.Client(), srv.URL+"/nope"); err == nil {
		t.Fatal("Fetch of 404 path: want error")
	}
}

func TestCheck(t *testing.T) {
	rep := sampleReport()
	if err := Check(rep, 1, 1); err != nil {
		t.Fatalf("Check(1,1): %v", err)
	}
	if err := Check(rep, 2, 1); err == nil || !strings.Contains(err.Error(), "swaps") {
		t.Fatalf("Check(2,1) = %v, want swaps error", err)
	}
	if err := Check(rep, 1, 3); err == nil || !strings.Contains(err.Error(), "anomalies") {
		t.Fatalf("Check(1,3) = %v, want anomalies error", err)
	}
	if err := Check(swaprt.TelemetryReport{}, 0, 0); err == nil {
		t.Fatal("Check of empty report: want error (no per-rank telemetry)")
	}
	if n := Anomalies(rep); n != 2 {
		t.Fatalf("Anomalies = %d, want 2", n)
	}
}

func TestRenderDeterministic(t *testing.T) {
	rep := sampleReport()
	var a, b strings.Builder
	Render(&a, rep)
	Render(&b, rep)
	if a.String() != b.String() {
		t.Fatal("Render is not deterministic for the same report")
	}
	out := a.String()
	for _, want := range []string{
		"epoch=2",
		"active=[0,3]",
		"quarantined=[2]",
		"circuit=half-open",
		"p50=0.02s",
		"z=40.0",
		"decisions: 9 (2 swap verdicts) swaps=1 aborts=1",
		"payback: p50=3 p90=5",
		"last: swap (payback) payback=5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	// Ranks render sorted regardless of input order.
	if strings.Index(out, "\n0 ") > strings.Index(out, "\n3 ") {
		t.Errorf("ranks not sorted:\n%s", out)
	}
	// A report without causal/flight telemetry renders none of those lines.
	if strings.Contains(out, "causal:") || strings.Contains(out, "flight:") {
		t.Errorf("pre-causal report rendered causal/flight lines:\n%s", out)
	}
}

// cannedCausalTelemetry is a verbatim /telemetry document from a run
// with -causal and -flight-dir armed, as the hub serves it (omitempty
// pointers present). No live server: the test decodes and renders it
// exactly as swapmon does.
const cannedCausalTelemetry = `{
  "now": 31.25,
  "epoch": 3,
  "active_set": [0, 1, 4],
  "quarantined": [2],
  "ranks": [
    {"rank": 0, "now": 31.25, "iters": 120, "iter_time": {"n": 120, "mean": 0.02, "p50": 0.02, "p90": 0.021, "p99": 0.022, "max": 0.025}, "rate": 960},
    {"rank": 1, "now": 31.25, "iters": 118, "iter_time": {"n": 118, "mean": 0.02, "p50": 0.02, "p90": 0.021, "p99": 0.022, "max": 0.024}, "rate": 955}
  ],
  "decisions": {"count": 5, "swap_verdicts": 2, "swaps": 1, "aborts": 1,
    "payback": {"n": 1, "mean": 4, "p50": 4, "p90": 4, "p99": 4, "max": 4},
    "latency": {"n": 5, "mean": 0.001, "p50": 0.001, "p90": 0.002, "p99": 0.002, "max": 0.002}},
  "causal": {"enabled": true, "max_clock": 4812, "sends": 2406},
  "flight": {"enabled": true, "buffered": 512, "observed": 9034, "dumps": 1,
    "last_dump": "swap abort: transfer timeout", "dir": "results/flight"}
}`

// TestRenderCausalFlight decodes the canned document and checks the new
// status lines: Lamport clock high-water mark, send count, flight ring
// occupancy and the last dump reason.
func TestRenderCausalFlight(t *testing.T) {
	var rep swaprt.TelemetryReport
	if err := json.Unmarshal([]byte(cannedCausalTelemetry), &rep); err != nil {
		t.Fatalf("decode canned telemetry: %v", err)
	}
	if rep.Causal == nil || rep.Flight == nil {
		t.Fatalf("canned document lost causal/flight on decode: %+v", rep)
	}
	var sb strings.Builder
	Render(&sb, rep)
	out := sb.String()
	for _, want := range []string{
		"causal: lamport max=4812 sends=2406",
		`flight: buffered=512 observed=9034 dumps=1 (last "swap abort: transfer timeout") dir=results/flight`,
		"quarantined=[2]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}

	// Armed recorder with no dumps yet renders a placeholder, not noise.
	rep.Flight.Dumps = 0
	rep.Flight.LastDump = ""
	sb.Reset()
	Render(&sb, rep)
	if !strings.Contains(sb.String(), "dumps=- ") {
		t.Errorf("no-dump flight line missing placeholder:\n%s", sb.String())
	}

	// Disabled probes (enabled:false but object present) render nothing.
	rep.Causal.Enabled = false
	rep.Flight.Enabled = false
	sb.Reset()
	Render(&sb, rep)
	if strings.Contains(sb.String(), "causal:") || strings.Contains(sb.String(), "flight:") {
		t.Errorf("disabled probes still rendered:\n%s", sb.String())
	}
}

// TestCausalTelemetryRoundTrip pins the wire names the hub serves and
// the dashboard consumes: encode a report with probes, decode it, and
// require the canned-document keys to appear in the encoding.
func TestCausalTelemetryRoundTrip(t *testing.T) {
	rep := sampleReport()
	rep.Causal = &swaprt.CausalTelemetry{Enabled: true, MaxClock: 77, Sends: 38}
	rep.Flight = &swaprt.FlightTelemetry{Enabled: true, Buffered: 12, Observed: 90,
		Dumps: 2, LastDump: "world close", Dir: "/tmp/fl"}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"causal"`, `"max_clock":77`, `"sends":38`,
		`"flight"`, `"buffered":12`, `"last_dump":"world close"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("encoded report missing %s: %s", key, data)
		}
	}
	var back swaprt.TelemetryReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Causal == nil || back.Causal.MaxClock != 77 || back.Flight == nil || back.Flight.Dumps != 2 {
		t.Fatalf("round trip lost probe fields: %+v", back)
	}

	// Pre-causal reports stay byte-compatible: no causal/flight keys at all.
	plain, err := json.Marshal(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "causal") || strings.Contains(string(plain), "flight") {
		t.Errorf("plain report leaked causal/flight keys: %s", plain)
	}
}
