package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// TraceCheck is one pass over a Chrome trace's entries (as
// ValidateChromeTrace returns them): what the trace shows of each part
// of a run — its decisions, the fault layer, the manager's crashes and
// recoveries — and the violations that are wrong in any trace.
type TraceCheck struct {
	Entries   int
	Decisions int // SwapDecision instants
	Complete  int // decisions carrying payback + verdict (a stay: its reason)
	Records   int // SwapRecords of proposed rounds (those with directives)

	Quarantines      int
	CircuitOpens     int
	CircuitCloses    int
	CircuitRecovered bool // a close at or after the first open

	Crashes       int // MgrCrash
	Recoveries    int // MgrRecover
	WALRecoveries int // recoveries after the first crash that replayed a non-empty WAL
	PostRecovery  int // decisions after the first such recovery

	// Violations: two clocks in one timeline (CheckTimeline), a
	// decision epoch stepping backwards — a stale leader that escaped the
	// epoch fence — or a proposed round without exactly one SwapRecord.
	Violations []string
}

// Ok reports whether no violations were found.
func (c TraceCheck) Ok() bool { return len(c.Violations) == 0 }

// CheckTrace runs the trace checks over Chrome trace entries in one
// pass. Evidence a particular kind of run must leave (a quarantine, a
// WAL replay) is counted, not required: the caller knows what it ran.
func CheckTrace(entries []map[string]any) TraceCheck {
	c := TraceCheck{Entries: len(entries)}
	firstOpen, lastClose := math.Inf(1), math.Inf(-1)
	firstCrash, walRecover := math.Inf(1), math.Inf(1)
	events := chromeEvents(entries)
	var decisions []Event
	for _, ev := range events {
		switch ev.Kind {
		case KindSwapDecision:
			decisions = append(decisions, ev)
			// A rejected decision legitimately has no payback (the gate
			// may fire before it is computed); verdict and reason make it
			// complete.
			if ev.Verdict == "stay" && ev.Reason != "" || ev.Verdict != "" && ev.Verdict != "stay" && ev.Payback != 0 {
				c.Complete++
			}
		case KindSwapRecord:
			if ev.Swaps > 0 {
				c.Records++
			}
		case KindQuarantine:
			c.Quarantines++
		case KindCircuit:
			switch ev.Detail {
			case "open":
				c.CircuitOpens++
				firstOpen = math.Min(firstOpen, ev.T)
			case "close":
				c.CircuitCloses++
				lastClose = math.Max(lastClose, ev.T)
			}
		case KindMgrCrash:
			c.Crashes++
			firstCrash = math.Min(firstCrash, ev.T)
		case KindMgrRecover:
			c.Recoveries++
			if ev.T >= firstCrash && strings.Contains(ev.Detail, "wal-replay") &&
				strings.Contains(ev.Detail, "records=") && !strings.Contains(ev.Detail, "records=0 ") {
				c.WALRecoveries++
				walRecover = math.Min(walRecover, ev.T)
			}
		}
	}
	c.Decisions = len(decisions)
	c.CircuitRecovered = c.CircuitOpens > 0 && c.CircuitCloses > 0 && lastClose >= firstOpen

	if err := CheckTimeline(events); err != nil {
		c.Violations = append(c.Violations, err.Error())
	}
	c.Violations = append(c.Violations, CheckRounds(events)...)
	sort.SliceStable(decisions, func(i, j int) bool { return decisions[i].T < decisions[j].T })
	for i, d := range decisions {
		if i > 0 && d.Epoch < decisions[i-1].Epoch {
			c.Violations = append(c.Violations, fmt.Sprintf(
				"decision epoch stepped backwards %d -> %d at ts %.0f: a stale leader escaped the fence",
				decisions[i-1].Epoch, d.Epoch, d.T*1e6))
		}
		if d.T > walRecover {
			c.PostRecovery++
		}
	}
	return c
}

// CheckRounds pairs every decision that ordered swaps with the one
// SwapRecord of its round, by the epoch the round proposed (an aborted
// round and its retry propose the same one), and returns a violation per
// epoch where they do not pair up.
func CheckRounds(events []Event) []string {
	rounds := map[uint64][2]int{} // proposed epoch -> decisions, records
	for _, ev := range events {
		if ev.Swaps == 0 {
			continue
		}
		switch ev.Kind {
		case KindSwapDecision:
			n := rounds[ev.Epoch+1]
			rounds[ev.Epoch+1] = [2]int{n[0] + 1, n[1]}
		case KindSwapRecord:
			n := rounds[ev.Epoch]
			rounds[ev.Epoch] = [2]int{n[0], n[1] + 1}
		}
	}
	var epochs []uint64
	for e, n := range rounds {
		if n[0] != n[1] {
			epochs = append(epochs, e)
		}
	}
	slices.Sort(epochs)
	var out []string
	for _, e := range epochs {
		out = append(out, fmt.Sprintf("epoch %d: %d proposed rounds but %d swap records", e, rounds[e][0], rounds[e][1]))
	}
	return out
}

// chromeEvents rebuilds the events behind Chrome trace entries: kind,
// rank (the "runtime" track is RankRuntime), time and duration from the
// entry, every other field from its args.
func chromeEvents(entries []map[string]any) []Event {
	runtimeTID := -1.0
	for _, e := range entries {
		if args, _ := e["args"].(map[string]any); e["ph"] == "M" && args["name"] == "runtime" {
			runtimeTID, _ = e["tid"].(float64)
		}
	}
	var events []Event
	for _, e := range entries {
		name, _ := e["name"].(string)
		kind, ok := KindByName(name)
		if name == "iteration" {
			kind, ok = KindIterStart, true
			if e["ph"] == "E" {
				kind = KindIterEnd
			}
		}
		if !ok {
			continue
		}
		var ev Event
		if b, err := json.Marshal(e["args"]); err == nil {
			_ = json.Unmarshal(b, &ev) // a field of the wrong type stays zero
		}
		ts, _ := e["ts"].(float64)
		dur, _ := e["dur"].(float64)
		tid, _ := e["tid"].(float64)
		ev.Kind, ev.Rank, ev.T, ev.Dur = kind, int(tid), ts/1e6, dur/1e6
		if tid == runtimeTID {
			ev.Rank = RankRuntime
		}
		events = append(events, ev)
	}
	return events
}
