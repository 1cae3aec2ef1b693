// Command swapvet runs the project's static-analysis suite: six analyzers
// (simdeterminism, lockedio, deadlineio, mpierr, obsdiscipline,
// clockdiscipline) encoding the runtime invariants the codebase depends on.
// It is standard-library only — package loading is `go list -export` plus
// the go/importer "gc" importer reading the dependencies' export data — and
// exits non-zero when any finding survives
// the //swapvet:ignore directives. The directives themselves are audited:
// naming an unknown analyzer or omitting the `-- rationale` is a finding.
//
// Usage:
//
//	swapvet [-C dir] [-run names] [-list] [patterns...]
//
// Patterns default to ./... relative to the module root (-C, default ".").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

// errFindings is run's error when the analyzers found something (exit
// 1); any other error is a usage or load failure (exit 2).
var errFindings = errors.New("finding(s)")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "swapvet:", err)
		if errors.Is(err, errFindings) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// run analyzes the packages args name and prints each finding on stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swapvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to analyze")
	names := fs.String("run", "", "comma-separated analyzers to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	analyzers := analysis.ByName(*names)
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	if len(analyzers) == 0 {
		return fmt.Errorf("-run %q: no analyzer matches", *names)
	}

	pkgs, err := analysis.NewLoader().LoadModule(*dir, fs.Args()...)
	if err != nil {
		return err
	}
	total := 0
	for _, pkg := range pkgs {
		for _, f := range analysis.RunAll(analyzers, pkg) {
			fmt.Fprintln(stdout, f)
			total++
		}
	}
	if total > 0 {
		return fmt.Errorf("%d %w", total, errFindings)
	}
	return nil
}
