package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: each command line here used to panic inside
// the load model or the trace, or print a meaningless trace. run must
// refuse it up front with an error that names the flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-step 0", "-step"},
		{"-model hyperexp -step 0", "-step"},
		{"-step NaN", "-step"},
		{"-p 1.5", "-p"},
		{"-q -0.1", "-q"},
		{"-p NaN", "-p"},
		{"-model hyperexp -arrival 2", "-arrival"},
		{"-model hyperexp -lifetime 0", "-lifetime"},
		{"-horizon +Inf", "-horizon"},
		{"-horizon NaN", "-horizon"},
		{"-horizon -1", "-horizon"},
		{"-model poisson", "-model"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(strings.Fields(tc.args), &stdout, &stderr)
			if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
				t.Fatalf("run(%s) = %v, want an error naming %s", tc.args, err, tc.flag)
			}
		})
	}
}

// TestRunWritesCSV: one sample per step from 0 to the horizon, or the
// change points up to it.
func TestRunWritesCSV(t *testing.T) {
	for _, tc := range []struct {
		args, header string
		rows         int
	}{
		{"-horizon 300 -step 30", "time_s,competing_processes", 11},
		{"-model hyperexp -horizon 300 -interval 100", "time_s,competing_processes", 4},
		{"-horizon 3600 -segments", "start_s,competing_processes", -1},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(tc.args), &stdout, &stderr); err != nil {
			t.Fatalf("run(%s): %v", tc.args, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) < 3 || !strings.HasPrefix(lines[0], "# ") || lines[1] != tc.header {
			t.Fatalf("run(%s) printed\n%s", tc.args, stdout.String())
		}
		if tc.rows >= 0 && len(lines)-2 != tc.rows {
			t.Errorf("run(%s): %d rows, want %d", tc.args, len(lines)-2, tc.rows)
		}
		if !strings.HasPrefix(lines[2], "0.000,") {
			t.Errorf("run(%s): first row %q, want one at t=0", tc.args, lines[2])
		}
	}
}
