package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// writeTrace exports hand-built events as a Chrome trace through an
// obs.Tracer, exactly as a run's -trace-out would.
func writeTrace(t *testing.T, evs ...obs.Event) string {
	t.Helper()
	tr := obs.New(2)
	tr.Enable()
	for _, ev := range evs {
		tr.Emit(ev)
	}
	return writeFile(t, "run.json", tr.WriteChromeTrace)
}

// writeDump writes one hand-built flight dump, led by its marker.
func writeDump(t *testing.T, name string, evs ...obs.Event) string {
	t.Helper()
	marker := obs.Event{Kind: obs.KindRuntimeError, Rank: evs[0].Rank, T: evs[0].T, Detail: "flight-dump: swap abort"}
	return writeFile(t, name, func(w io.Writer) error {
		return obs.WriteEventsJSONL(w, append([]obs.Event{marker}, evs...))
	})
}

func writeFile(t *testing.T, name string, write func(io.Writer) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func tracecheck(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// iteration is rank's iteration [t0, t1] as the runtime measures it.
func iteration(rank int, t0, t1 float64) []obs.Event {
	return []obs.Event{
		{Kind: obs.KindIterStart, Rank: rank, T: t0},
		{Kind: obs.KindIterEnd, Rank: rank, T: t1, Value: t1 - t0},
	}
}

func decision(t float64, epoch uint64) obs.Event {
	return obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: t, Epoch: epoch,
		Verdict: "swap", Payback: 2, Reason: "payback within threshold", Swaps: 1}
}

// record is the SwapRecord of the round a decision at t proposed.
func record(t float64, proposed uint64) obs.Event {
	return obs.Event{Kind: obs.KindSwapRecord, Rank: obs.RankRuntime, T: t, Dur: 0.001, Epoch: proposed,
		Swaps: 1, Payback: 2, Verdict: obs.VerdictCommit,
		Round: &obs.SwapRound{Pairs: []obs.SwapPair{{Out: 0, In: 1, Committed: true}}}}
}

func TestCleanTracePrintsEverySection(t *testing.T) {
	evs := append(iteration(0, 0, 0.1), iteration(0, 0.1, 0.2)...)
	evs = append(evs,
		decision(0.1, 1),
		record(0.1, 2),
		obs.Event{Kind: obs.KindQuarantine, Rank: obs.RankRuntime, T: 0.11, Peer: 1},
		obs.Event{Kind: obs.KindCircuit, Rank: obs.RankRuntime, T: 0.12, Detail: "open"},
		obs.Event{Kind: obs.KindMgrCrash, Rank: obs.RankRuntime, T: 0.13},
		obs.Event{Kind: obs.KindMgrRecover, Rank: obs.RankRuntime, T: 0.14, Detail: "wal-replay records=3 epoch=1 pending=0"},
		obs.Event{Kind: obs.KindCircuit, Rank: obs.RankRuntime, T: 0.15, Detail: "close"},
		decision(0.2, 2),
		record(0.2, 3),
	)
	out, err := tracecheck(writeTrace(t, evs...))
	if err != nil {
		t.Fatalf("clean trace failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"decisions: 2 (2 with full payback payload), 2 swap records",
		"faults:    1 quarantines, circuit 1 open / 1 close, recovered",
		"manager:   1 crashes, 1 recoveries (1 WAL replays), 1 decisions after recovery",
		"ok — one timeline, decision epochs monotone, one record per round",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestBackwardDecisionEpochFails(t *testing.T) {
	evs := append(iteration(0, 0, 0.2), decision(0.1, 2), record(0.1, 3), decision(0.2, 1), record(0.2, 2))
	out, err := tracecheck(writeTrace(t, evs...))
	if err == nil || !strings.Contains(out, "decision epoch stepped backwards 2 -> 1") {
		t.Fatalf("err = %v, want an epoch violation:\n%s", err, out)
	}
}

func TestMixedClocksFail(t *testing.T) {
	// The rank's events span 10 ms of trace time, yet it measured two
	// iterations of 5 s each: the tracer and the runtime read different
	// clocks.
	evs := []obs.Event{
		{Kind: obs.KindIterStart, Rank: 0, T: 0},
		{Kind: obs.KindIterEnd, Rank: 0, T: 0.005, Value: 5},
		{Kind: obs.KindIterStart, Rank: 0, T: 0.005},
		{Kind: obs.KindIterEnd, Rank: 0, T: 0.01, Value: 5},
	}
	out, err := tracecheck(writeTrace(t, evs...))
	if err == nil || !strings.Contains(out, "two clocks in one trace") {
		t.Fatalf("err = %v, want a two-clock violation:\n%s", err, out)
	}
}

func TestPostmortemMergesDumpsInCausalOrder(t *testing.T) {
	// Send and receive share a timestamp; only the Lamport clocks order
	// them, and the receiver's dump is named first.
	recv := writeDump(t, "flight-rank1.jsonl",
		obs.Event{Kind: obs.KindMsgRecv, Rank: 1, T: 1, Peer: 0, LC: 6, PeerLC: 5, Seq: 1},
		obs.Event{Kind: obs.KindSwapAbort, Rank: 1, T: 1.5, Epoch: 1, Detail: "state transfer timed out"})
	send := writeDump(t, "flight-rank0.jsonl",
		obs.Event{Kind: obs.KindMsgSend, Rank: 0, T: 1, Peer: 1, LC: 5, Seq: 1})
	out, err := tracecheck("-postmortem", recv, send)
	if err != nil {
		t.Fatalf("postmortem failed: %v\n%s", err, out)
	}
	s, r := strings.Index(out, "MsgSend"), strings.Index(out, "MsgRecv")
	if s < 0 || r < 0 || s > r {
		t.Errorf("the send does not precede its receive:\n%s", out)
	}
	for _, want := range []string{"matched_edges=1", "abort evidence: 1 swap aborts", "postmortem: ok — 2 dumps, 3 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestPostmortemRecvBeforeSendFails(t *testing.T) {
	dump := writeDump(t, "flight-rank1.jsonl",
		obs.Event{Kind: obs.KindMsgRecv, Rank: 1, T: 1, Peer: 0, LC: 3, PeerLC: 5, Seq: 1})
	out, err := tracecheck("-postmortem", dump)
	if err == nil || !strings.Contains(out, "recv-before-send") {
		t.Fatalf("err = %v, want a recv-before-send violation:\n%s", err, out)
	}
}
