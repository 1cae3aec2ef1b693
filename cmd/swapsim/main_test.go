package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// swapsim runs the command on a small swapping scenario that writes its
// events to a JSONL file, and returns what it printed and the events.
func swapsim(t *testing.T, args ...string) (string, []obs.Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var out bytes.Buffer
	args = append([]string{"-hosts", "8", "-iters", "12", "-events-out", path}, args...)
	if err := run(args, &out); err != nil {
		t.Fatalf("swapsim %v: %v\n%s", args, err, out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), events
}

// A simulated run audits only when -lens asks it to, at the tolerance
// -lens-tolerance gives.
func TestLensFlags(t *testing.T) {
	for _, c := range []struct {
		name          string
		args          []string
		lens          bool   // ShadowDecision and PaybackRealized events expected
		tol, reported string // the tolerance in PaybackRealized details and in the summary
	}{
		{name: "lens", args: []string{"-lens"}, lens: true, tol: "tol=0.5 ", reported: "(tolerance 0.5)"},
		{name: "no lens", args: nil},
		{name: "tolerance", args: []string{"-lens", "-lens-tolerance", "0.3"}, lens: true,
			tol: "tol=0.3 ", reported: "(tolerance 0.3)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, events := swapsim(t, c.args...)
			var decisions, shadows, realized int
			for _, ev := range events {
				switch ev.Kind {
				case obs.KindSwapDecision:
					decisions++
				case obs.KindShadowDecision:
					shadows++
				case obs.KindPaybackRealized:
					realized++
					if !strings.Contains(ev.Detail, c.tol) {
						t.Errorf("PaybackRealized detail %q lacks %q", ev.Detail, c.tol)
					}
				}
			}
			if decisions == 0 {
				t.Fatal("the run traced no decision")
			}
			if (shadows > 0) != c.lens || (realized > 0) != c.lens {
				t.Errorf("%d ShadowDecision and %d PaybackRealized events over %d decisions, want some of each: %v",
					shadows, realized, decisions, c.lens)
			}
			if got := strings.Contains(out, "lens "); got != c.lens || !strings.Contains(out, c.reported) {
				t.Errorf("summary reports a lens %v, want %v with %q:\n%s", got, c.lens, c.reported, out)
			}
		})
	}
}

func TestRunRejectsLiveOnlyFlags(t *testing.T) {
	err := run([]string{"-telemetry"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "live runs") {
		t.Fatalf("err = %v, want -telemetry refused", err)
	}
}
