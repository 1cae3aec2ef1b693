package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// runPostmortem merges per-rank flight-recorder dumps into one causally
// ordered cross-rank timeline, prints it with its abort evidence, and
// runs the causality validations; a violation is its error.
func runPostmortem(stdout io.Writer, args []string) error {
	paths, err := expandDumps(args)
	if err != nil {
		return err
	}
	var merged []obs.Event
	fmt.Fprintf(stdout, "postmortem: merging %d flight dumps\n", len(paths))
	for _, p := range paths {
		evs, err := readJSONL(p)
		if err != nil {
			return err
		}
		reason := "(no dump marker)"
		if len(evs) > 0 && evs[0].Kind == obs.KindRuntimeError &&
			strings.HasPrefix(evs[0].Detail, "flight-dump: ") {
			reason = strings.TrimPrefix(evs[0].Detail, "flight-dump: ")
			evs = evs[1:] // the marker is dump metadata, not runtime history
		}
		fmt.Fprintf(stdout, "  %s: %d events, dumped on %q\n", p, len(evs), reason)
		merged = append(merged, evs...)
	}
	if len(merged) == 0 {
		return fmt.Errorf("postmortem: dumps contain no events")
	}
	obs.SortCausal(merged)

	fmt.Fprintf(stdout, "\n== causal cross-rank timeline (%d events) ==\n", len(merged))
	for _, ev := range merged {
		fmt.Fprintln(stdout, formatEvent(ev))
	}

	check := obs.CheckCausality(merged)
	fmt.Fprintf(stdout, "\n== causality validations ==\n")
	fmt.Fprintf(stdout, "sends=%d recvs=%d matched_edges=%d truncated=%d max_clock=%d\n",
		check.Sends, check.Recvs, check.Matched, check.Truncated, check.MaxClock)
	for _, v := range check.Violations {
		fmt.Fprintf(stdout, "VIOLATION: %s\n", v)
	}

	aborts, quarantines := 0, 0
	for _, ev := range merged {
		switch ev.Kind {
		case obs.KindSwapAbort:
			aborts++
		case obs.KindQuarantine:
			quarantines++
		}
	}
	fmt.Fprintf(stdout, "abort evidence: %d swap aborts, %d quarantines\n", aborts, quarantines)

	if !check.Ok() {
		return fmt.Errorf("postmortem: %d causality violations", len(check.Violations))
	}
	fmt.Fprintf(stdout, "postmortem: ok — %d dumps, %d events, causally ordered, validations passed\n",
		len(paths), len(merged))
	return nil
}

// expandDumps turns the argument list into the dump files to merge: a
// single directory argument expands to its *.jsonl files (sorted),
// anything else is taken as an explicit file list.
func expandDumps(args []string) ([]string, error) {
	if len(args) == 1 {
		st, err := os.Stat(args[0])
		if err != nil {
			return nil, err
		}
		if st.IsDir() {
			paths, err := filepath.Glob(filepath.Join(args[0], "*.jsonl"))
			if err != nil {
				return nil, err
			}
			if len(paths) == 0 {
				return nil, fmt.Errorf("postmortem: no *.jsonl dumps in %s", args[0])
			}
			sort.Strings(paths)
			return paths, nil
		}
	}
	return args, nil
}

// formatEvent renders one timeline line: timestamp, rank, kind, then
// whichever optional fields the event carries.
func formatEvent(ev obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%14.6f] rank %2d %-13s", ev.T, ev.Rank, ev.Kind.String())
	if ev.Peer != 0 || ev.Kind == obs.KindMsgSend || ev.Kind == obs.KindMsgRecv {
		fmt.Fprintf(&b, " peer=%d", ev.Peer)
	}
	if ev.LC != 0 {
		fmt.Fprintf(&b, " lc=%d seq=%d", ev.LC, ev.Seq)
	}
	if ev.PeerLC != 0 {
		fmt.Fprintf(&b, " peer_lc=%d", ev.PeerLC)
	}
	if ev.Epoch != 0 {
		fmt.Fprintf(&b, " epoch=%d", ev.Epoch)
	}
	if ev.Bytes != 0 {
		fmt.Fprintf(&b, " bytes=%d", ev.Bytes)
	}
	if ev.Detail != "" {
		fmt.Fprintf(&b, " %q", ev.Detail)
	}
	return b.String()
}
