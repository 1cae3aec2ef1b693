package obs

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// chromeEntries exports evs as a Chrome trace and parses it back, the
// shape CheckTrace reads.
func chromeEntries(t *testing.T, evs ...Event) []map[string]any {
	t.Helper()
	tr := New(1)
	tr.Enable()
	for _, ev := range evs {
		tr.Emit(ev)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	entries, err := ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestCheckTrace(t *testing.T) {
	rt := func(k Kind, at float64, detail string) Event {
		return Event{Kind: k, Rank: RankRuntime, T: at, Detail: detail}
	}
	decide := func(at float64, epoch uint64, verdict, reason string, payback float64) Event {
		return Event{Kind: KindSwapDecision, Rank: RankRuntime, T: at, Epoch: epoch,
			Verdict: verdict, Reason: reason, Payback: payback}
	}
	c := CheckTrace(chromeEntries(t,
		Event{Kind: KindIterStart, Rank: 0, T: 0},
		Event{Kind: KindIterEnd, Rank: 0, T: 1, Value: 1},
		decide(0.1, 0, "stay", "no faster spare", 0),            // complete: a stay needs only its reason
		decide(0.2, 1, "swap", "", 0),                           // incomplete: a swap without payback
		decide(0.3, 1, "swap", "", 3),                           // complete
		rt(KindCircuit, 0.35, "close"),                          // a close before any open recovers nothing
		rt(KindMgrRecover, 0.4, "wal-replay records=5 epoch=1"), // before any crash
		rt(KindMgrCrash, 0.5, ""),
		rt(KindMgrRecover, 0.6, "wal-replay records=0 epoch=1"), // replayed nothing
		rt(KindMgrRecover, 0.7, "wal-replay records=4 epoch=1 pending=1"),
		rt(KindCircuit, 0.75, "open"),
		rt(KindQuarantine, 0.8, ""),
		decide(0.9, 2, "swap", "", 1),
	))
	want := TraceCheck{Entries: c.Entries, Decisions: 4, Complete: 3, Quarantines: 1,
		CircuitOpens: 1, CircuitCloses: 1, Crashes: 1, Recoveries: 3, WALRecoveries: 1, PostRecovery: 1}
	if c.Entries == 0 || !reflect.DeepEqual(c, want) {
		t.Errorf("CheckTrace = %+v\nwant         %+v", c, want)
	}

	// A later close recovers the circuit; an epoch stepping back and a
	// second clock are violations.
	c = CheckTrace(chromeEntries(t,
		Event{Kind: KindIterStart, Rank: 0, T: 0},
		Event{Kind: KindIterEnd, Rank: 0, T: 0.005, Value: 5},
		Event{Kind: KindIterStart, Rank: 0, T: 0.005},
		Event{Kind: KindIterEnd, Rank: 0, T: 0.01, Value: 5},
		rt(KindCircuit, 0.001, "open"),
		rt(KindCircuit, 0.002, "close"),
		decide(0.003, 2, "swap", "", 1),
		decide(0.004, 1, "swap", "", 1),
	))
	if !c.CircuitRecovered || len(c.Violations) != 2 ||
		!strings.Contains(c.Violations[0], "two clocks") || !strings.Contains(c.Violations[1], "epoch stepped backwards 2 -> 1") {
		t.Errorf("recovered %v, violations %q: want recovered, two clocks and a backward epoch",
			c.CircuitRecovered, c.Violations)
	}
}

// TestCheckTraceOneRecordPerRound: every decision that orders swaps is a
// proposed round, and each round states exactly one SwapRecord under the
// epoch it proposed. An aborted round and its retry propose the same
// epoch and state one record each.
func TestCheckTraceOneRecordPerRound(t *testing.T) {
	decide := func(at float64, epoch uint64) Event {
		return Event{Kind: KindSwapDecision, Rank: 0, T: at, Epoch: epoch, Swaps: 1, Verdict: "swap", Payback: 1}
	}
	record := func(at float64, epoch uint64, verdict string) Event {
		return Event{Kind: KindSwapRecord, Rank: 0, T: at, Dur: 0.01, Epoch: epoch, Swaps: 1, Verdict: verdict,
			Round: &SwapRound{Pairs: []SwapPair{{Out: 0, In: 1, Committed: verdict == VerdictCommit}}}}
	}
	rounds := []Event{
		decide(0.1, 0), record(0.11, 1, VerdictAbort),
		decide(0.2, 0), record(0.21, 1, VerdictCommit),
		decide(0.3, 1), record(0.31, 2, VerdictCommit),
	}
	if c := CheckTrace(chromeEntries(t, rounds...)); !c.Ok() || c.Records != 3 {
		t.Errorf("records %d, violations %q: want 3 and none", c.Records, c.Violations)
	}
	missing := rounds[:5]
	doubled := append(slices.Clone(rounds), record(0.32, 2, VerdictCommit))
	for name, tc := range map[string]struct {
		evs  []Event
		want string
	}{
		"missing": {missing, "epoch 2: 1 proposed rounds but 0 swap records"},
		"doubled": {doubled, "epoch 2: 1 proposed rounds but 2 swap records"},
	} {
		c := CheckTrace(chromeEntries(t, tc.evs...))
		if len(c.Violations) != 1 || !strings.Contains(c.Violations[0], tc.want) {
			t.Errorf("%s: violations %q, want %q", name, c.Violations, tc.want)
		}
	}
}
