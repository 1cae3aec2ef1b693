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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiment"
	"repro/internal/report"
)

func main() {
	var (
		figFlag = flag.String("fig", "all", "figure to regenerate: 1..9, an ablation/extension ID, 'all', 'ablations' or 'extensions'")
		seeds   = flag.Int("seeds", 0, "independent repetitions per point (0 = default)")
		iters   = flag.Int("iters", 0, "application iterations per run (0 = default)")
		seed    = flag.Int64("seed", 0, "base random seed (0 = default)")
		format  = flag.String("format", "text", "output format: text, csv, json or plot (ASCII chart)")
		quick   = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		outDir  = flag.String("out", "", "write per-figure files into this directory instead of stdout")
		list    = flag.Bool("list", false, "list every experiment ID and exit")
		check   = flag.Bool("check", false, "run the full claim battery (report.Claims) and exit non-zero on failure")
	)
	flag.Parse()

	if *check {
		opt := experiment.Options{Seeds: *seeds, Iterations: *iters, BaseSeed: *seed, Quick: *quick}
		passed, failed, err := report.Run(opt, time.Now(), os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\n%d passed, %d failed\n", passed, failed)
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("paper figures:")
		for _, id := range experiment.IDs() {
			fmt.Println("  " + id)
		}
		fmt.Println("ablations:")
		for _, id := range experiment.AblationIDs() {
			fmt.Println("  " + id)
		}
		fmt.Println("extensions:")
		for _, id := range experiment.ExtensionIDs() {
			fmt.Println("  " + id)
		}
		return
	}

	opt := experiment.Options{
		Seeds:      *seeds,
		Iterations: *iters,
		BaseSeed:   *seed,
		Quick:      *quick,
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
			fmt.Fprintf(os.Stderr,
				"swapexp: unknown figure %q (want 1..9, an ablation ID, all, or ablations)\n", *figFlag)
			os.Exit(2)
		}
		ids = []string{id}
	}

	for _, id := range ids {
		fig := generators[id](opt)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outDir, id+"."+ext(*format))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := write(fig, *format, f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
			continue
		}
		if err := write(fig, *format, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func ext(format string) string {
	switch format {
	case "text", "plot":
		return "txt"
	}
	return format
}

func write(fig *experiment.FigureResult, format string, f *os.File) error {
	if format == "plot" {
		return fig.Plot().Render(f)
	}
	tbl, err := fig.Table()
	if err != nil {
		return err
	}
	switch format {
	case "text":
		return tbl.WriteText(f)
	case "csv":
		return tbl.WriteCSV(f)
	case "json":
		return tbl.WriteJSON(f)
	}
	return fmt.Errorf("swapexp: unknown format %q", format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swapexp:", err)
	os.Exit(1)
}
