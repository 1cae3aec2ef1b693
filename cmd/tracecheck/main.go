// Command tracecheck validates a Chrome/Perfetto trace_event JSON file
// produced by -trace-out in one pass (obs.CheckTrace) and prints what it
// found section by section: decisions, how many carry the payback
// distance and policy verdict, and the swap records of the rounds they
// proposed; fault evidence (quarantines, circuit open→close); and manager
// crashes, WAL-replay recoveries and the decisions after them. It fails
// only on what is wrong in any trace: a broken trace_event schema, two
// clocks in one timeline (obs.CheckTimeline), a decision epoch stepping
// backwards, or a proposed round without exactly one SwapRecord.
//
// With -analyze the argument is a JSONL event log (-events-out) instead:
// tracecheck prints a deterministic report of it — per swap record, paid
// against predicted time, transfers, bytes and realized payback, and the
// median of each phase (the in-situ ledger); per-round critical path and
// imbalance, decision latency, and the slowdown detector's anomaly
// windows. The same trace always produces a byte-identical report.
//
// With -audit the argument is a JSONL event log: tracecheck replays the
// policy lens contract offline — every committed swap must carry a
// realized-payback attribution (unless too close to the trace end to
// score), every realization must be internally consistent with the
// tolerance, and the shadow-policy scoreboard is summarized per policy.
// Mispredictions are reported as findings; contract violations fail.
//
// With -postmortem the arguments are per-rank flight-recorder dumps
// (JSONL files or a directory of them, as written on a swap abort,
// quarantine, rank panic or world close): tracecheck merges them into a
// single causally-ordered cross-rank timeline using the Lamport clocks
// piggybacked on messages, prints it with the swap-abort and quarantine
// evidence it holds, and runs the causality validations (no recv before
// its send, per-rank Lamport monotonicity, epoch monotonicity) tolerating
// the bounded-ring truncation of old events.
//
// Example:
//
//	swaprun -ranks 2 -active 1 -trace-out run.json && tracecheck run.json
//	swaprun -ranks 2 -active 1 -events-out run.jsonl && tracecheck -analyze run.jsonl
//	swaprun -chaos '...' -causal -flight-dir flight && tracecheck -postmortem flight
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/swaprt/policylens"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

const usage = "usage: tracecheck <trace.json> | tracecheck -analyze|-audit <events.jsonl> | tracecheck -postmortem <flight-dir | dump.jsonl...>"

// run checks what args name and reports on stdout; a failed check is
// its error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	analyze := fs.Bool("analyze", false, "treat the argument as a JSONL event log and print the offline analysis report")
	audit := fs.Bool("audit", false, "treat the argument as a JSONL event log and verify the policy-lens contract: committed swaps carry realized-payback attribution")
	postmortem := fs.Bool("postmortem", false, "treat the arguments as flight-recorder dumps (files or a directory) and reconstruct the causal cross-rank timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *postmortem && fs.NArg() > 0:
		return runPostmortem(stdout, fs.Args())
	case *postmortem || fs.NArg() != 1:
		return errors.New(usage)
	case *analyze:
		events, err := readJSONL(fs.Arg(0))
		if err != nil {
			return err
		}
		return obs.Analyze(events).WriteReport(stdout)
	case *audit:
		events, err := readJSONL(fs.Arg(0))
		if err != nil {
			return err
		}
		res := policylens.Audit(events)
		if err := res.WriteReport(stdout); err != nil {
			return err
		}
		if !res.OK() {
			return fmt.Errorf("%s: the policy-lens contract does not hold", fs.Arg(0))
		}
		return nil
	}
	return checkTrace(stdout, fs.Arg(0))
}

// checkTrace validates one Chrome trace and prints every section of its
// obs.CheckTrace.
func checkTrace(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := obs.ValidateChromeTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	c := obs.CheckTrace(entries)
	recovered := ""
	if c.CircuitRecovered {
		recovered = ", recovered"
	}
	fmt.Fprintf(stdout, "tracecheck: %s — %d entries\n", path, c.Entries)
	fmt.Fprintf(stdout, "  decisions: %d (%d with full payback payload), %d swap records\n", c.Decisions, c.Complete, c.Records)
	fmt.Fprintf(stdout, "  faults:    %d quarantines, circuit %d open / %d close%s\n",
		c.Quarantines, c.CircuitOpens, c.CircuitCloses, recovered)
	fmt.Fprintf(stdout, "  manager:   %d crashes, %d recoveries (%d WAL replays), %d decisions after recovery\n",
		c.Crashes, c.Recoveries, c.WALRecoveries, c.PostRecovery)
	for _, v := range c.Violations {
		fmt.Fprintf(stdout, "  VIOLATION: %s\n", v)
	}
	if !c.Ok() {
		return fmt.Errorf("%s: %d violations", path, len(c.Violations))
	}
	fmt.Fprintf(stdout, "tracecheck: %s ok — one timeline, decision epochs monotone, one record per round\n", path)
	return nil
}

func readJSONL(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}
