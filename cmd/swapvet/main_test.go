package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRun: findings and usage errors stay apart, because main turns the
// first into exit 1 and the second into exit 2.
func TestRun(t *testing.T) {
	fixture := "./internal/analysis/testdata/src/lockedio"
	for _, tc := range []struct {
		args     string
		findings bool   // run returns errFindings
		usage    string // run returns another error with this prefix
		stdout   string // printed on stdout
	}{
		{args: "-list", stdout: "lockedio "},
		{args: "-run nosuch", usage: "-run "},
		{args: "-C ../.. -run lockedio " + fixture, findings: true, stdout: "while a mutex is held"},
		{args: "-C ../.. -run lockedio ./cmd/swapvet"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(strings.Fields(tc.args), &stdout, &stderr)
			switch {
			case tc.findings:
				if !errors.Is(err, errFindings) {
					t.Errorf("run = %v, want findings", err)
				}
			case tc.usage != "":
				if err == nil || errors.Is(err, errFindings) || !strings.HasPrefix(err.Error(), tc.usage) {
					t.Errorf("run = %v, want a usage error naming %s", err, tc.usage)
				}
			case err != nil:
				t.Errorf("run = %v, want nil", err)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q, want it to contain %q", stdout.String(), tc.stdout)
			}
		})
	}
}
