// Command swapexp regenerates the paper's figures: it runs the simulation
// sweeps behind Figures 1–9 of "Policies for Swapping MPI Processes"
// (HPDC 2003) and prints the data series the paper plots. Live runs of
// the runtime are swaprun's.
//
// Usage:
//
//	swapexp -fig 4                 # one figure, aligned text to stdout
//	swapexp -fig all -format csv   # every figure as CSV
//	swapexp -fig 7 -seeds 16       # more repetitions
//	swapexp -fig all -out results/ # one CSV file per figure
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiment"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "swapexp:", err)
		os.Exit(1)
	}
}

// run parses args and writes the figures they name to stdout, or one
// file each under -out; -check's failed claims are its error. Every flag
// is checked before any figure is computed.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swapexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figFlag = fs.String("fig", "all", "figure to regenerate: 1..9, an ablation/extension ID, 'all', 'ablations' or 'extensions'")
		seeds   = fs.Int("seeds", 0, "independent repetitions per point (0 = default)")
		iters   = fs.Int("iters", 0, "application iterations per run (0 = default)")
		seed    = fs.Int64("seed", 0, "base random seed (0 = default)")
		format  = fs.String("format", "text", "output format: text, csv, json or plot (ASCII chart)")
		quick   = fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
		outDir  = fs.String("out", "", "write per-figure files into this directory instead of stdout")
		list    = fs.Bool("list", false, "list every experiment ID and exit")
		check   = fs.Bool("check", false, "run the full claim battery (report.Claims) and exit non-zero on failure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *seeds < 0:
		return fmt.Errorf("-seeds %d: want 0 (the default) or more", *seeds)
	case *iters < 0:
		return fmt.Errorf("-iters %d: want 0 (the default) or more", *iters)
	case ext(*format) == "":
		return fmt.Errorf("-format %q: want text, csv, json or plot", *format)
	}
	opt := experiment.Options{Seeds: *seeds, Iterations: *iters, BaseSeed: *seed, Quick: *quick}

	if *check {
		passed, failed, err := report.Run(opt, time.Now(), stdout)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "\n%d passed, %d failed\n", passed, failed)
		if failed > 0 {
			return fmt.Errorf("%d claim(s) failed", failed)
		}
		return nil
	}

	if *list {
		for _, group := range []struct {
			name string
			ids  []string
		}{{"paper figures", experiment.IDs()}, {"ablations", experiment.AblationIDs()}, {"extensions", experiment.ExtensionIDs()}} {
			fmt.Fprintln(stdout, group.name+":")
			for _, id := range group.ids {
				fmt.Fprintln(stdout, "  "+id)
			}
		}
		return nil
	}

	generators := experiment.All()
	for id, gen := range experiment.Ablations() {
		generators[id] = gen
	}
	for id, gen := range experiment.Extensions() {
		generators[id] = gen
	}

	var ids []string
	switch *figFlag {
	case "all":
		ids = experiment.IDs()
	case "ablations":
		ids = experiment.AblationIDs()
	case "extensions":
		ids = experiment.ExtensionIDs()
	default:
		id := *figFlag
		if len(id) <= 2 {
			id = "fig" + id
		}
		if _, ok := generators[id]; !ok {
			return fmt.Errorf("-fig %q: unknown figure (want 1..9, an ablation or extension ID, all, ablations or extensions)", *figFlag)
		}
		ids = []string{id}
	}

	for _, id := range ids {
		fig := generators[id](opt)
		if *outDir == "" {
			if err := write(fig, *format, stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			continue
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, id+"."+ext(*format))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = write(fig, *format, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}

// ext is the file extension of format, "" for an unknown one.
func ext(format string) string {
	switch format {
	case "text", "plot":
		return "txt"
	case "csv", "json":
		return format
	}
	return ""
}

func write(fig *experiment.FigureResult, format string, w io.Writer) error {
	if format == "plot" {
		return fig.Plot().Render(w)
	}
	tbl, err := fig.Table()
	if err != nil {
		return err
	}
	switch format {
	case "csv":
		return tbl.WriteCSV(w)
	case "json":
		return tbl.WriteJSON(w)
	}
	return tbl.WriteText(w)
}
