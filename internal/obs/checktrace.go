package obs

import (
	"fmt"
	"math"
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

	Quarantines      int
	CircuitOpens     int
	CircuitCloses    int
	CircuitRecovered bool // a close at or after the first open

	Crashes       int // MgrCrash
	Recoveries    int // MgrRecover
	WALRecoveries int // recoveries after the first crash that replayed a non-empty WAL
	PostRecovery  int // decisions after the first such recovery

	// Violations: two clocks in one timeline (CheckTimeline), or a
	// decision epoch stepping backwards — a stale leader that escaped the
	// epoch fence.
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
	type decision struct{ ts, epoch float64 }
	var decisions []decision
	for _, e := range entries {
		name, _ := e["name"].(string)
		ts, _ := e["ts"].(float64)
		args, _ := e["args"].(map[string]any)
		detail, _ := args["detail"].(string)
		switch name {
		case KindSwapDecision.String():
			epoch, _ := args["epoch"].(float64) // omitted while zero
			decisions = append(decisions, decision{ts, epoch})
			_, hasPayback := args["payback"].(float64)
			_, hasReason := args["reason"].(string)
			// A rejected decision legitimately has no payback (the gate
			// may fire before it is computed); verdict and reason make it
			// complete.
			if verdict, _ := args["verdict"].(string); verdict == "stay" && hasReason ||
				verdict != "" && verdict != "stay" && hasPayback {
				c.Complete++
			}
		case KindQuarantine.String():
			c.Quarantines++
		case KindCircuit.String():
			switch detail {
			case "open":
				c.CircuitOpens++
				firstOpen = math.Min(firstOpen, ts)
			case "close":
				c.CircuitCloses++
				lastClose = math.Max(lastClose, ts)
			}
		case KindMgrCrash.String():
			c.Crashes++
			firstCrash = math.Min(firstCrash, ts)
		case KindMgrRecover.String():
			c.Recoveries++
			if ts >= firstCrash && strings.Contains(detail, "wal-replay") &&
				strings.Contains(detail, "records=") && !strings.Contains(detail, "records=0 ") {
				c.WALRecoveries++
				walRecover = math.Min(walRecover, ts)
			}
		}
	}
	c.Decisions = len(decisions)
	c.CircuitRecovered = c.CircuitOpens > 0 && c.CircuitCloses > 0 && lastClose >= firstOpen

	if err := CheckTimeline(chromeTimeline(entries)); err != nil {
		c.Violations = append(c.Violations, err.Error())
	}
	sort.SliceStable(decisions, func(i, j int) bool { return decisions[i].ts < decisions[j].ts })
	for i, d := range decisions {
		if i > 0 && d.epoch < decisions[i-1].epoch {
			c.Violations = append(c.Violations, fmt.Sprintf(
				"decision epoch stepped backwards %g -> %g at ts %.0f: a stale leader escaped the fence",
				decisions[i-1].epoch, d.epoch, d.ts))
		}
		if d.ts > walRecover {
			c.PostRecovery++
		}
	}
	return c
}

// chromeTimeline rebuilds, from Chrome trace entries, as much of each
// event as CheckTimeline reads: kind, rank (the "runtime" track is
// RankRuntime), time, duration and the IterEnd value.
func chromeTimeline(entries []map[string]any) []Event {
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
		ts, _ := e["ts"].(float64)
		dur, _ := e["dur"].(float64)
		tid, _ := e["tid"].(float64)
		args, _ := e["args"].(map[string]any)
		value, _ := args["value"].(float64)
		ev := Event{Kind: kind, Rank: int(tid), T: ts / 1e6, Dur: dur / 1e6, Value: value}
		if tid == runtimeTID {
			ev.Rank = RankRuntime
		}
		events = append(events, ev)
	}
	return events
}
