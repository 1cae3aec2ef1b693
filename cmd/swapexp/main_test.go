package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFiguresMatchResults regenerates every figure, ablation and
// extension and requires the committed results/*.csv byte for byte: a
// simulator change that moves one digit of one cell, or adds or drops a
// file, fails here by name.
func TestFiguresMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all figure data; skipped in -short")
	}
	dir := t.TempDir()
	for _, set := range []string{"all", "ablations", "extensions"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-fig", set, "-out", dir, "-format", "csv"}, &stdout, &stderr); err != nil {
			t.Fatalf("-fig %s: %v\n%s", set, err, stderr.String())
		}
	}
	want, err := filepath.Glob("../../results/*.csv")
	if err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if names(got) != names(want) {
		t.Fatalf("regenerated %s, results/ holds %s", names(got), names(want))
	}
	for _, path := range want {
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := os.ReadFile(filepath.Join(dir, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, committed) {
			t.Errorf("%s: regenerated data differs from results/", filepath.Base(path))
		}
	}
}

// names lists the base names of paths, sorted.
func names(paths []string) string {
	var base []string
	for _, p := range paths {
		base = append(base, filepath.Base(p))
	}
	slices.Sort(base)
	return strings.Join(base, " ")
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"paper figures:\n  fig1\n", "ablations:\n", "extensions:\n  ext-reclamation\n"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list printed\n%s\nwant it to contain %q", stdout.String(), want)
		}
	}
}

func TestRunFigureToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "4", "-quick", "-format", "csv"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if lines := strings.Split(strings.TrimSpace(stdout.String()), "\n"); len(lines) < 2 || !strings.Contains(lines[0], ",") {
		t.Errorf("-fig 4 -format csv printed %q, want a CSV header and rows", stdout.String())
	}
}

// TestRunRejectsBadFlags: each command line here used to compute a
// figure before failing, leave a file behind, or panic. run must refuse
// it up front, with -out still empty, and name the flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-fig 4 -format xml", "-format"},
		{"-fig 4 -seeds -1", "-seeds"},
		{"-fig 4 -iters -1", "-iters"},
		{"-fig 99", "-fig"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			var stdout, stderr bytes.Buffer
			err := run(append(strings.Fields(tc.args), "-out", out), &stdout, &stderr)
			if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
				t.Fatalf("run(%s) = %v, want an error naming %s", tc.args, err, tc.flag)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("run(%s) left -out behind (%v)", tc.args, err)
			}
		})
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "99"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "extension") {
		t.Errorf("unknown figure: %v, want the message to list extensions", err)
	}
}
