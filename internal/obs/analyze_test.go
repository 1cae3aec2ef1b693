package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestReadJSONLRoundTrip pins that WriteJSONL → ReadJSONL reproduces the
// event stream exactly, kinds included.
func TestReadJSONLRoundTrip(t *testing.T) {
	tr := New(2)
	tr.Enable()
	tr.Emit(Event{Kind: KindIterEnd, Rank: 0, T: 1, Value: 0.5})
	tr.Emit(Event{Kind: KindSwapDecision, Rank: 0, T: 2, Dur: 0.001,
		SwapTime: 0.2, Payback: 3, Swaps: 1, Verdict: "swap", Reason: "gain"})
	tr.Emit(Event{Kind: KindStateTransfer, Rank: 1, T: 2.1, Dur: 0.05, Bytes: 1024, Detail: "out"})
	tr.Emit(Event{Kind: KindAnomaly, Rank: 1, T: 3, Value: 0.9, IterTime: 0.3, Z: 4.2, Detail: "iter_time"})
	tr.Emit(Event{Kind: KindSwapRecord, Rank: 0, T: 2.001, Dur: 0.06, Epoch: 1, Swaps: 1, SwapTime: 0.2,
		Payback: 3, Verdict: VerdictCommit, Round: &SwapRound{Pairs: []SwapPair{{Out: 1, In: 2, Committed: true}},
			Phases: Phases{Gather: 0.01, Decide: 0.001, Plan: 0.005, Vote: 0.05, Commit: 0.004, Rebuild: 0.001}}})

	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip %d events, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"NoSuchKind","rank":0}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{not json`)); err == nil {
		t.Fatal("malformed line accepted")
	}
	evs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank input: %v, %d events", err, len(evs))
	}
}

// TestAnalyzeSyntheticTrace drives Analyze over a hand-built trace and
// checks the report's core sections: per-rank iteration stats, swap
// attribution, round imbalance, decision latency, and the offline
// anomaly replay firing on an excursion the trace itself never flagged.
func TestAnalyzeSyntheticTrace(t *testing.T) {
	var events []Event
	// 20 rounds on 2 ranks: rank 0 steady at 0.1s, rank 1 steady at 0.2s
	// until round 15, where it jumps to 1.6s (an 8x excursion).
	for i := 0; i < 20; i++ {
		ti := float64(i + 1)
		v1 := 0.2
		if i == 15 {
			v1 = 1.6
		}
		events = append(events,
			Event{Kind: KindIterEnd, Rank: 0, T: ti, Value: 0.1},
			Event{Kind: KindIterEnd, Rank: 1, T: ti, Value: v1},
			Event{Kind: KindSwapDecision, Rank: 0, T: ti + 0.01, Dur: 0.001, Verdict: "stay"},
		)
	}
	// One swap decision with its transfer, the record of its round, and
	// the realization of its payback. The spare's inbound transfer is not
	// the round's cost.
	events = append(events,
		Event{Kind: KindIterEnd, Rank: 0, T: 21, Value: 0.1},
		Event{Kind: KindIterEnd, Rank: 1, T: 21, Value: 0.2},
		Event{Kind: KindSwapDecision, Rank: 0, T: 21.01, Dur: 0.002,
			SwapTime: 0.5, Payback: 4, Swaps: 1, Verdict: "swap"},
		Event{Kind: KindStateTransfer, Rank: 1, T: 21.02, Dur: 0.3, Bytes: 2048, Detail: "out", Epoch: 1},
		Event{Kind: KindStateTransfer, Rank: 2, T: 21.02, Dur: 0.31, Bytes: 2048, Detail: "in", Epoch: 1},
		Event{Kind: KindSwapRecord, Rank: 0, T: 21.012, Dur: 0.35, Epoch: 1, Swaps: 1, SwapTime: 0.5,
			Payback: 4, Verdict: VerdictCommit, Round: &SwapRound{Pairs: []SwapPair{{Out: 1, In: 2, Committed: true}},
				Phases: Phases{Plan: 0.008, Vote: 0.31, Commit: 0.02, Rebuild: 0.012}}},
		Event{Kind: KindPaybackRealized, Rank: RankRuntime, T: 22, Epoch: 1, Payback: 4.2, Verdict: "ok"},
	)
	sortEvents(events)

	a := Analyze(events)
	if len(a.Ranks) != 3 || a.Ranks[0] != 0 || a.Ranks[1] != 1 || a.Ranks[2] != 2 {
		t.Fatalf("ranks %v", a.Ranks)
	}
	wins := a.AnomalyWindows()
	if len(wins) != 1 || wins[0].Rank != 1 || wins[0].Peak != 1.6 {
		t.Fatalf("anomaly windows %+v", wins)
	}

	var b strings.Builder
	if err := a.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	rep := b.String()
	for _, want := range []string{
		"3 ranks",
		"== swap overhead attribution",
		"directives=1 payback=4 predicted=0.5s paid=0.35s actual=0.3s bytes=2048 realized=4.2(ok)",
		"phases (median s): gather=0 decide=0 plan=0.008 transfer=0 vote=0.31 commit=0.02 rebuild=0.012",
		"== swap-point rounds",
		"rounds=21",
		"== decision latency",
		"== anomaly windows",
		"rank 1",
		"peak=1.6s",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q\n---\n%s", want, rep)
		}
	}
	// Imbalance: rank 1 dominates every round; stretch must exceed 1.
	if !strings.Contains(rep, "critical_path=") {
		t.Errorf("no critical path in report\n%s", rep)
	}

	// Determinism: same events, byte-identical report.
	var b2 strings.Builder
	if err := Analyze(events).WriteReport(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != rep {
		t.Error("two analyses of the same trace differ")
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	var b strings.Builder
	if err := Analyze(nil).WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0 events", "no rounds", "no swap records", "none detected"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("empty report missing %q\n%s", want, b.String())
		}
	}
}

// FuzzReadJSONL holds the trace reader to its contract on any bytes: it
// never panics, and a trace it accepts re-encodes with WriteEventsJSONL
// and reads back to the same events, swap records' rounds included.
func FuzzReadJSONL(f *testing.F) {
	tr := New(2)
	tr.Enable()
	tr.Emit(Event{Kind: KindSwapDecision, Rank: 0, T: 1, Dur: 0.001, SwapTime: 0.2, Payback: 3, Swaps: 1,
		Verdict: "swap", Reason: "gain", Epoch: 4})
	tr.Emit(Event{Kind: KindStateTransfer, Rank: 0, T: 1.01, Dur: 0.05, Peer: 1, Bytes: 4096, Detail: "out", Epoch: 5})
	tr.Emit(Event{Kind: KindSwapRecord, Rank: 0, T: 1.001, Dur: 0.06, Epoch: 5, Swaps: 1, SwapTime: 0.2,
		Payback: 3, Verdict: VerdictCommit, Round: &SwapRound{Pairs: []SwapPair{{Out: 0, In: 1, Committed: true}},
			Phases: Phases{Gather: 0.01, Decide: 0.001, Plan: 0.002, Transfer: 0.05, Vote: 0.005, Commit: 0.002, Rebuild: 0.001}}})
	var seed strings.Builder
	if err := tr.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(seed.String()))
	f.Add([]byte(`{"kind":"SwapRecord","rank":-1,"t":2,"round":{"pairs":[],"phases":{}}}`))
	f.Add([]byte(`{"kind":"SwapRecord","rank":0,"t":2,"round":null}` + "\n" + `{"kind":"IterEnd","rank":1,"t":1,"value":0.5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEventsJSONL(&buf, evs); err != nil {
			t.Fatalf("accepted events do not encode: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not read: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, evs) {
			t.Fatalf("re-read events differ:\n got  %+v\n want %+v", again, evs)
		}
	})
}
