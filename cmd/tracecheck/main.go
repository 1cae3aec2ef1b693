// Command tracecheck validates a Chrome/Perfetto trace_event JSON file
// produced by -trace-out: every entry must carry the required
// trace_event keys, the trace must be on one timeline (obs.CheckTimeline:
// each rank's measured iteration times fit inside the span of its events,
// and lens and anomaly events fall inside the ranks' span), and (unless
// -no-decision) at least one SwapDecision instant must include the
// payback distance and policy verdict the swapping policy computed. With
// -chaos it additionally requires the evidence a fault-injected run must
// leave behind: at least one Quarantine event and a Circuit "open"
// transition followed by a "close". CI's trace-smoke and chaos-smoke
// targets run it against fresh swaprun demos.
//
// With -failover it requires manager-restart evidence instead: at
// least one MgrCrash followed (in trace time) by a MgrRecover whose
// detail proves a WAL replay, decision epochs nondecreasing across the
// whole run (a fenced stale leader can never re-commit an old epoch),
// and at least one decision after the recovery showing the world kept
// swapping under the reborn manager. CI's failover-smoke target runs
// it against an accelerated run that kills swapmgr mid-swap.
//
// With -analyze the argument is a JSONL event log (-events-out) instead:
// tracecheck replays it offline and prints a deterministic analysis
// report — swap-overhead attribution per the payback algebra, per-round
// critical path and imbalance, decision latency quantiles, and anomaly
// windows from the telemetry slowdown detector. The same trace always
// produces a byte-identical report, so reports diff cleanly across runs.
//
// With -audit the argument is a JSONL event log: tracecheck replays the
// policy lens contract offline — every committed swap must carry a
// realized-payback attribution (unless too close to the trace end to
// score), every realization must be internally consistent with the
// tolerance, and the shadow-policy scoreboard is summarized per policy.
// Mispredictions are reported as findings; contract violations exit
// non-zero. CI's lens-smoke target runs it against a fresh -lens run.
//
// With -postmortem the arguments are per-rank flight-recorder dumps
// (JSONL files or a directory of them, as written on a swap abort,
// quarantine, rank panic or world close): tracecheck merges them into a
// single causally-ordered cross-rank timeline using the Lamport clocks
// piggybacked on messages, prints it, and runs the causality
// validations (no recv before its send, per-rank Lamport monotonicity,
// epoch monotonicity) tolerating the bounded-ring truncation of old
// events. -require-abort additionally demands swap-abort or quarantine
// evidence, which CI's postmortem-smoke uses against a chaos run.
//
// Example:
//
//	swaprun -ranks 2 -active 1 -trace-out run.json && tracecheck run.json
//	swaprun -ranks 2 -active 1 -events-out run.jsonl && tracecheck -analyze run.jsonl
//	swaprun -chaos '...' -causal -flight-dir flight && tracecheck -postmortem flight
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/swaprt/policylens"
)

func main() {
	noDecision := flag.Bool("no-decision", false, "skip the SwapDecision payload requirement (traces from runs that never reach a decision point)")
	chaosCheck := flag.Bool("chaos", false, "require fault-injection evidence: a Quarantine event and a Circuit open followed by a close")
	failoverCheck := flag.Bool("failover", false, "require manager-restart evidence: MgrCrash then a WAL-replay MgrRecover, nondecreasing decision epochs, and a post-recovery decision")
	analyze := flag.Bool("analyze", false, "treat the argument as a JSONL event log and print the offline analysis report")
	audit := flag.Bool("audit", false, "treat the argument as a JSONL event log and verify the policy-lens contract: committed swaps carry realized-payback attribution")
	auditTolerance := flag.Float64("audit-tolerance", 0, "with -audit, relative payback error counted as a misprediction (0 = lens default)")
	postmortem := flag.Bool("postmortem", false, "treat the arguments as flight-recorder dumps (files or a directory) and reconstruct the causal cross-rank timeline")
	requireAbort := flag.Bool("require-abort", false, "with -postmortem, require swap-abort or quarantine evidence in the merged timeline")
	flag.Parse()
	if *postmortem {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: tracecheck -postmortem [-require-abort] <flight-dir | dump.jsonl...>")
			os.Exit(2)
		}
		runPostmortem(flag.Args(), *requireAbort)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-no-decision|-chaos|-failover] <trace.json> | tracecheck -analyze <events.jsonl> | tracecheck -postmortem <flight-dir>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	if *analyze {
		runAnalyze(path)
		return
	}
	if *audit {
		runAudit(path, *auditTolerance)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	entries, err := obs.ValidateChromeTrace(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}

	if err := obs.CheckTimeline(timelineEvents(entries)); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}

	decisions := 0
	complete := 0
	for _, e := range entries {
		name, _ := e["name"].(string)
		if name != obs.KindSwapDecision.String() {
			continue
		}
		decisions++
		args, _ := e["args"].(map[string]any)
		if args == nil {
			continue
		}
		_, hasPayback := args["payback"].(float64)
		verdict, _ := args["verdict"].(string)
		if verdict == "stay" {
			// A rejected decision legitimately has no payback (the gate
			// may fire before the payback is computed); the verdict and
			// reason alone make it complete.
			if _, ok := args["reason"].(string); ok {
				complete++
			}
			continue
		}
		if hasPayback && verdict != "" {
			complete++
		}
	}

	if !*noDecision {
		if decisions == 0 {
			fatal(fmt.Errorf("%s: no SwapDecision events in trace (%d entries)", path, len(entries)))
		}
		if complete == 0 {
			fatal(fmt.Errorf("%s: %d SwapDecision events but none carry payback + verdict", path, decisions))
		}
	}

	quarantines := 0
	if *chaosCheck {
		firstOpen, lastClose := math.Inf(1), math.Inf(-1)
		opens, closes := 0, 0
		for _, e := range entries {
			name, _ := e["name"].(string)
			ts, _ := e["ts"].(float64)
			args, _ := e["args"].(map[string]any)
			detail, _ := args["detail"].(string)
			switch name {
			case obs.KindQuarantine.String():
				quarantines++
			case obs.KindCircuit.String():
				switch detail {
				case "open":
					opens++
					firstOpen = math.Min(firstOpen, ts)
				case "close":
					closes++
					lastClose = math.Max(lastClose, ts)
				}
			}
		}
		if quarantines == 0 {
			fatal(fmt.Errorf("%s: chaos run left no Quarantine event", path))
		}
		if opens == 0 || closes == 0 {
			fatal(fmt.Errorf("%s: circuit transitions open=%d close=%d, want at least one of each", path, opens, closes))
		}
		if lastClose < firstOpen {
			fatal(fmt.Errorf("%s: circuit closed (ts %.0f) only before it first opened (ts %.0f)", path, lastClose, firstOpen))
		}
	}

	crashes, recoveries := 0, 0
	if *failoverCheck {
		crashes, recoveries = checkFailover(path, entries)
	}

	fmt.Printf("tracecheck: %s ok — %d entries, %d decisions (%d with full payback payload)", path, len(entries), decisions, complete)
	if *chaosCheck {
		fmt.Printf(", %d quarantines + circuit recovery", quarantines)
	}
	if *failoverCheck {
		fmt.Printf(", %d manager crashes + %d recoveries (WAL replay verified)", crashes, recoveries)
	}
	fmt.Println()
}

// timelineEvents rebuilds, from Chrome trace entries, as much of each
// event as obs.CheckTimeline reads: kind, rank (the "runtime" track is
// rank -1), time, duration and the IterEnd value.
func timelineEvents(entries []map[string]any) []obs.Event {
	runtimeTID := -1.0
	for _, e := range entries {
		if args, _ := e["args"].(map[string]any); e["ph"] == "M" && args["name"] == "runtime" {
			runtimeTID, _ = e["tid"].(float64)
		}
	}
	var events []obs.Event
	for _, e := range entries {
		name, _ := e["name"].(string)
		kind, ok := obs.KindByName(name)
		if name == "iteration" {
			kind, ok = obs.KindIterStart, true
			if e["ph"] == "E" {
				kind = obs.KindIterEnd
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
		ev := obs.Event{Kind: kind, Rank: int(tid), T: ts / 1e6, Dur: dur / 1e6, Value: value}
		if tid == runtimeTID {
			ev.Rank = obs.RankRuntime
		}
		events = append(events, ev)
	}
	return events
}

// checkFailover enforces the evidence a manager kill/restart run must
// leave behind: a crash, a later recovery that replayed the WAL, epoch
// fencing (decision epochs never step backwards), and a decision after
// the recovery proving the reborn manager kept serving. It fatals on
// the first violation and returns (crashes, recoveries) on success.
func checkFailover(path string, entries []map[string]any) (int, int) {
	firstCrash := math.Inf(1)
	walRecover := math.Inf(1)
	crashes, recoveries := 0, 0
	type decision struct {
		ts, epoch float64
	}
	var decisions []decision
	for _, e := range entries {
		name, _ := e["name"].(string)
		ts, _ := e["ts"].(float64)
		args, _ := e["args"].(map[string]any)
		detail, _ := args["detail"].(string)
		switch name {
		case obs.KindMgrCrash.String():
			crashes++
			firstCrash = math.Min(firstCrash, ts)
		case obs.KindMgrRecover.String():
			recoveries++
			if strings.Contains(detail, "wal-replay") && strings.Contains(detail, "records=") &&
				!strings.Contains(detail, "records=0 ") && ts >= firstCrash {
				walRecover = math.Min(walRecover, ts)
			}
		case obs.KindSwapDecision.String():
			epoch, _ := args["epoch"].(float64) // omitted while zero
			decisions = append(decisions, decision{ts: ts, epoch: epoch})
		}
	}
	if crashes == 0 {
		fatal(fmt.Errorf("%s: failover run left no MgrCrash event", path))
	}
	if math.IsInf(walRecover, 1) {
		fatal(fmt.Errorf("%s: no MgrRecover after the crash carries WAL-replay evidence (%d recoveries total)", path, recoveries))
	}
	sort.SliceStable(decisions, func(i, j int) bool { return decisions[i].ts < decisions[j].ts })
	post := 0
	for i, d := range decisions {
		if i > 0 && d.epoch < decisions[i-1].epoch {
			fatal(fmt.Errorf("%s: decision epoch stepped backwards %g -> %g at ts %.0f — a stale leader escaped the fence",
				path, decisions[i-1].epoch, d.epoch, d.ts))
		}
		if d.ts > walRecover {
			post++
		}
	}
	if post == 0 {
		fatal(fmt.Errorf("%s: no SwapDecision after the WAL-replay recovery (ts %.0f) — the reborn manager never served", path, walRecover))
	}
	return crashes, recoveries
}

// runAnalyze reads a JSONL event log and prints the deterministic
// offline analysis report.
func runAnalyze(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		fatal(err)
	}
	if err := obs.Analyze(events).WriteReport(os.Stdout); err != nil {
		fatal(err)
	}
}

// runAudit reads a JSONL event log, replays the policy-lens contract
// and prints the deterministic audit report, exiting non-zero when the
// trace violates it.
func runAudit(path string, tolerance float64) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		fatal(err)
	}
	res := policylens.Audit(events, policylens.AuditConfig{Tolerance: tolerance})
	if err := res.WriteReport(os.Stdout); err != nil {
		fatal(err)
	}
	if !res.OK() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
