package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerIsSafe pins the nil-safety contract every call site relies
// on: a nil *Tracer accepts the full API without panicking or recording.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Enable()
	tr.Disable()
	tr.Emit(Event{Kind: KindMPISend, Rank: 0})
	tr.EmitNow(Event{Kind: KindSwapDecision})
	if tr.Now() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Ranks() != 0 {
		t.Fatal("nil tracer not inert")
	}
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer has events: %v", evs)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer chrome trace invalid: %v", err)
	}
}

// TestDisabledTracerRecordsNothing: a constructed tracer records only
// while enabled.
func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := New(2)
	tr.Emit(Event{Kind: KindMPISend, Rank: 0, T: 1})
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer recorded %d events", tr.Len())
	}
	tr.Enable()
	tr.Emit(Event{Kind: KindMPISend, Rank: 0, T: 1})
	tr.Disable()
	tr.Emit(Event{Kind: KindMPISend, Rank: 0, T: 2})
	if tr.Len() != 1 {
		t.Fatalf("got %d events, want 1", tr.Len())
	}
}

func TestEventsMergedSorted(t *testing.T) {
	tr := New(3, WithClock(func() float64 { return 42 }))
	tr.Enable()
	tr.Emit(Event{Kind: KindIterStart, Rank: 2, T: 3})
	tr.Emit(Event{Kind: KindIterStart, Rank: 0, T: 1})
	tr.Emit(Event{Kind: KindIterStart, Rank: 1, T: 2})
	tr.Emit(Event{Kind: KindSwapDecision, Rank: RankRuntime, T: 2})
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events", len(evs))
	}
	want := []float64{1, 2, 2, 3}
	for i, ev := range evs {
		if ev.T != want[i] {
			t.Fatalf("event %d at T=%g, want %g (%v)", i, ev.T, want[i], evs)
		}
	}
	// Same T: runtime (-1) sorts before rank 1.
	if evs[1].Rank != RankRuntime || evs[2].Rank != 1 {
		t.Fatalf("tie order wrong: %v", evs[1:3])
	}
	// EmitNow stamps the injected clock.
	tr.EmitNow(Event{Kind: KindHandlerProbe, Rank: 0})
	evs = tr.Events()
	if got := evs[len(evs)-1].T; got != 42 {
		t.Fatalf("EmitNow stamped T=%g, want 42", got)
	}
}

func TestRankFilterAndLimit(t *testing.T) {
	tr := New(3, WithRanks([]int{1}), WithLimit(chunkSize+3))
	tr.Enable()
	for i := 0; i < chunkSize+10; i++ {
		tr.Emit(Event{Kind: KindMPISend, Rank: 1, T: float64(i)})
	}
	tr.Emit(Event{Kind: KindMPISend, Rank: 0, T: 0}) // filtered, not dropped
	tr.Emit(Event{Kind: KindSwapDecision, Rank: RankRuntime, T: 0})
	if got := tr.Len(); got != chunkSize+3+1 {
		t.Fatalf("len = %d, want %d", got, chunkSize+3+1)
	}
	if got := tr.Dropped(); got != 7 {
		t.Fatalf("dropped = %d, want 7", got)
	}
}

// TestConcurrentEmit exercises the per-rank locking under the race
// detector.
func TestConcurrentEmit(t *testing.T) {
	tr := New(4)
	tr.Enable()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Emit(Event{Kind: KindMPISend, Rank: rank, T: float64(i), Bytes: 8})
			}
		}(r)
	}
	wg.Wait()
	if got := tr.Len(); got != 8000 {
		t.Fatalf("len = %d, want 8000", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New(1)
	tr.Enable()
	tr.Emit(Event{Kind: KindSwapDecision, Rank: 0, T: 1.5, Payback: 2.25, Verdict: "swap", Reason: "accepted"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("jsonl line not JSON: %v\n%s", err, line)
	}
	if m["kind"] != "SwapDecision" {
		t.Fatalf("kind = %v, want SwapDecision", m["kind"])
	}
	if m["payback"] != 2.25 || m["verdict"] != "swap" {
		t.Fatalf("payload lost: %v", m)
	}
}

// TestChromeTraceRoundTrip pins the Perfetto-loadable schema: the output
// parses as a trace_event array whose entries all carry ph/ts/pid/tid/name,
// duration events become "X" slices, iterations become B/E pairs, and the
// SwapDecision instant keeps its payback payload in args.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := New(2)
	tr.Enable()
	tr.Emit(Event{Kind: KindIterStart, Rank: 0, T: 0.001})
	tr.Emit(Event{Kind: KindIterEnd, Rank: 0, T: 0.002, Value: 0.001})
	tr.Emit(Event{Kind: KindMPISend, Rank: 0, T: 0.0015, Dur: 0.0001, Peer: 1, Bytes: 64})
	tr.Emit(Event{Kind: KindSwapDecision, Rank: 0, T: 0.002, Dur: 0.00005,
		IterTime: 0.001, OldPerf: 100, NewPerf: 1000, SwapTime: 0.01,
		Payback: 11.1, Swaps: 1, Verdict: "swap", Reason: "accepted"})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	entries, err := ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	var decision map[string]any
	for _, e := range entries {
		phases[e["ph"].(string)]++
		if e["name"] == "SwapDecision" {
			decision = e
		}
	}
	if phases["M"] != 3 { // rank 0, rank 1, runtime
		t.Fatalf("metadata events = %d, want 3", phases["M"])
	}
	if phases["B"] != 1 || phases["E"] != 1 || phases["X"] != 1 || phases["i"] != 1 {
		t.Fatalf("phase counts wrong: %v", phases)
	}
	if decision == nil {
		t.Fatal("no SwapDecision in trace")
	}
	args := decision["args"].(map[string]any)
	if args["payback"] != 11.1 || args["verdict"] != "swap" || args["old_perf"] != 100.0 {
		t.Fatalf("decision args lost payload: %v", args)
	}
	if decision["tid"] != 0.0 || decision["pid"] != 0.0 {
		t.Fatalf("decision track wrong: %v", decision)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	if _, err := ValidateChromeTrace(strings.NewReader(`{"not":"array"}`)); err == nil {
		t.Fatal("non-array accepted")
	}
	if _, err := ValidateChromeTrace(strings.NewReader(`[{"name":"x","ph":"i","ts":0,"pid":0}]`)); err == nil {
		t.Fatal("entry missing tid accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mpi.rank0.msgs_sent")
	c.Add(3)
	c.Inc()
	if r.Counter("mpi.rank0.msgs_sent") != c {
		t.Fatal("counter handle not stable")
	}
	g := r.Gauge("swaprt.last_payback")
	g.Set(2.5)
	h := r.Histogram("swaprt.decide_s", 0, 1, 10)
	h.Add(0.05)
	h.Add(5) // over
	snap := r.Snapshot()
	if snap["mpi.rank0.msgs_sent"] != 4 {
		t.Fatalf("counter snapshot = %g", snap["mpi.rank0.msgs_sent"])
	}
	if snap["swaprt.last_payback"] != 2.5 {
		t.Fatalf("gauge snapshot = %g", snap["swaprt.last_payback"])
	}
	if snap["swaprt.decide_s.bin0"] != 1 || snap["swaprt.decide_s.over"] != 1 {
		t.Fatalf("histogram snapshot wrong: %v", snap)
	}
	names := Names(snap)
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	// The snapshot is JSON-encodable.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindSwapDecision.String() != "SwapDecision" || Kind(99).String() != "Kind(99)" {
		t.Fatal("kind names wrong")
	}
}
