// Command swapexp regenerates the paper's figures: it runs the simulation
// sweeps behind Figures 1–9 of "Policies for Swapping MPI Processes"
// (HPDC 2003) and prints the data series the paper plots.
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
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/obs/obsflag"
	"repro/internal/report"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

func main() {
	var (
		figFlag   = flag.String("fig", "all", "figure to regenerate: 1..9, an ablation/extension ID, 'all', 'ablations' or 'extensions'")
		seeds     = flag.Int("seeds", 0, "independent repetitions per point (0 = default)")
		iters     = flag.Int("iters", 0, "application iterations per run (0 = default)")
		seed      = flag.Int64("seed", 0, "base random seed (0 = default)")
		format    = flag.String("format", "text", "output format: text, csv, json or plot (ASCII chart)")
		quick     = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		outDir    = flag.String("out", "", "write per-figure files into this directory instead of stdout")
		list      = flag.Bool("list", false, "list every experiment ID and exit")
		check     = flag.Bool("check", false, "run the full claim battery (report.Claims) and exit non-zero on failure")
		live      = flag.Bool("live", false, "run a small live-runtime demo (internal/swaprt over TCP) and print its stats")
		chaos     = flag.String("chaos", "", "fault plan for the live demo (see internal/mpi/fault); empty for none")
		accel     = flag.Float64("accel", 1, "with -live: run the runtime on a virtual clock this many times faster than wall time")
		scenarios = flag.Int("scenarios", 1, "with -live: sweep this many varied live scenarios (degrade rank/onset rotate) and print aggregate stats")
	)
	traceFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	if *accel <= 0 {
		fatal(fmt.Errorf("-accel must be positive, got %g", *accel))
	}
	var tm clock.Clock = clock.Real{}
	if *accel != 1 {
		tm = clock.NewScaled(*accel)
	}
	if *live {
		if *scenarios > 1 {
			if err := liveSweep(*chaos, tm, *accel, *scenarios); err != nil {
				fatal(err)
			}
			return
		}
		if err := liveDemo(traceFlags, *chaos, tm); err != nil {
			fatal(err)
		}
		return
	}
	if traceFlags.Enabled() {
		fatal(fmt.Errorf("-trace-out/-events-out apply to the live runtime demo; add -live (simulation sweeps trace via swapsim)"))
	}
	if *chaos != "" {
		fatal(fmt.Errorf("-chaos applies to the live runtime demo; add -live"))
	}
	if *accel != 1 || *scenarios != 1 {
		fatal(fmt.Errorf("-accel/-scenarios apply to the live runtime demo; add -live (simulation sweeps are already virtual-time)"))
	}

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

// liveDemo complements the simulation sweeps with a miniature run of the
// real runtime: 4 ranks over the TCP transport, 2 active, a synthetic
// probe that makes rank 1's host collapse partway through, and a greedy
// policy that swaps it out. It prints the RunStats (including the MPI
// per-rank transport counters) so the instrumented path is exercised
// end to end from the command line. A chaos spec arms the fault layer
// and a resilient, fault-gated decider on top of the same demo.
func liveDemo(traceFlags *obsflag.Flags, chaos string, tm clock.Clock) error {
	const (
		ranks  = 4
		active = 2
		iters  = 30
	)
	var plan *fault.Plan
	if chaos != "" {
		var err error
		if plan, err = fault.Parse(chaos); err != nil {
			return err
		}
	}
	worldCfg := mpi.Config{Size: ranks, TCP: true, Clock: tm, Causal: traceFlags.Causal}
	if plan != nil {
		worldCfg.Fault = plan
	}
	world, err := mpi.NewWorldWithConfig(worldCfg)
	if err != nil {
		return err
	}
	live, err := traceFlags.Live(world)
	if err != nil {
		return err
	}
	tracer, hub, lens := live.Tracer, live.Hub, live.Lens
	iterCount := 0
	probe := func(rank int) float64 {
		// Rank 1's host degrades sharply after the first third of the run.
		if rank == 1 && iterCount > iters/3 {
			return 100
		}
		return 1000
	}
	cfg := swaprt.Config{
		Active:    active,
		Policy:    core.Greedy(),
		Probe:     probe,
		Tracer:    tracer,
		Telemetry: hub,
		Lens:      lens,
	}
	if plan != nil {
		cfg.TransferTimeout = 500 * time.Millisecond
		resilient := swaprt.NewDecisionStack(world, cfg, nil, nil, plan.ManagerCall)
		defer resilient.Close()
		cfg.Decider = resilient
		fmt.Printf("live demo: chaos plan armed: %s\n", chaos)
	}
	fmt.Printf("live demo: %d ranks (TCP), %d active, %d iterations, greedy policy\n",
		ranks, active, iters)
	stats, err := swaprt.RunWithStats(world, cfg, func(s *swaprt.Session) error {
		iter := 0
		acc := 0.0
		s.Register("iter", &iter)
		s.Register("acc", &acc)
		for !s.Done() && iter < iters {
			if s.Active() {
				v, err := s.Comm().AllReduceFloat64(mpi.OpSum, 1)
				if err != nil {
					return err
				}
				acc += v
				iter++
				if plan != nil {
					plan.Advance(s.Rank())
				}
				if s.Comm().Rank() == 0 {
					iterCount = iter
				}
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("live demo stats: %s\n", stats)
	if hub != nil {
		rep := hub.Report()
		fmt.Printf("live telemetry: %d decisions (%d swap verdicts, %d committed), %d ranks observed\n",
			rep.Decisions.Count, rep.Decisions.SwapVerdicts, rep.Decisions.Swaps, len(rep.Ranks))
	}
	if lens != nil {
		rep := lens.Report()
		fmt.Printf("live lens: %d decisions, %d commits, %d realized (%d mispredicted), %d shadow decisions\n",
			rep.Decisions, rep.Commits, rep.Realized, rep.Mispredicts, rep.ShadowDecisions())
	}
	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	if err := traceFlags.WriteMetrics(world.Metrics(), logf); err != nil {
		return err
	}
	return traceFlags.Write(tracer, logf)
}

// liveSweep runs n varied live-runtime scenarios back to back on the
// shared (usually scaled) clock and prints aggregate runtime statistics.
// Scenario i rotates which active rank's host degrades and when, so the
// sweep exercises swap-out of either active slot at many points of the
// run; a chaos spec arms the same deterministic fault plan in every
// scenario on top of that rotation. With -accel the virtual schedules
// compress, which is what makes a thousand-scenario sweep a
// coffee-break job instead of an overnight one.
func liveSweep(chaos string, tm clock.Clock, accel float64, n int) error {
	const (
		ranks  = 4
		active = 2
		iters  = 30
	)
	fmt.Printf("live sweep: %d scenarios, %d ranks (in-process), %d active, %d iters, accel %gx\n",
		n, ranks, active, iters, accel)
	wallStart := time.Now()
	var ok, failed, swaps, aborts, quarantined, decisions int
	var realized, mispredicts, shadowEvals, divergences int
	for i := 0; i < n; i++ {
		degradeRank := i % active
		onset := iters/4 + (i*7)%(iters/2)
		stats, lrep, err := liveScenario(chaos, tm, degradeRank, onset, ranks, active, iters)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "swapexp: scenario %d (degrade rank %d at iter %d): %v\n",
				i, degradeRank, onset, err)
			continue
		}
		ok++
		swaps += stats.Swaps
		aborts += stats.SwapAborts
		quarantined += stats.Quarantined
		decisions += stats.Decisions
		realized += lrep.Realized
		mispredicts += lrep.Mispredicts
		for _, s := range lrep.Shadow {
			shadowEvals += s.Decisions
			divergences += s.Decisions - s.Agreements
		}
		if (i+1)%100 == 0 {
			fmt.Printf("  %d/%d scenarios, %d swaps so far (%.1fs wall)\n",
				i+1, n, swaps, time.Since(wallStart).Seconds())
		}
	}
	fmt.Printf("live sweep done: %d ok, %d failed, %d swaps (%d aborted, %d quarantined), %d decisions in %.1fs wall\n",
		ok, failed, swaps, aborts, quarantined, decisions, time.Since(wallStart).Seconds())
	fmt.Printf("live sweep lens: %d paybacks realized (%d mispredicted), %d shadow evals (%d divergences)\n",
		realized, mispredicts, shadowEvals, divergences)
	if failed > 0 {
		return fmt.Errorf("%d/%d scenarios failed", failed, n)
	}
	return nil
}

// liveScenario is one sweep element: an in-process world whose
// degradeRank's host collapses at iteration onset, swapped by a greedy
// policy, optionally under a chaos plan and a resilient decider. Every
// scenario carries its own policy lens so the sweep doubles as a
// prediction-accuracy experiment; the lens report rides back alongside
// the run stats.
func liveScenario(chaos string, tm clock.Clock, degradeRank, onset, ranks, active, iters int) (swaprt.RunStats, policylens.Report, error) {
	var plan *fault.Plan
	if chaos != "" {
		var err error
		if plan, err = fault.Parse(chaos); err != nil {
			return swaprt.RunStats{}, policylens.Report{}, err
		}
	}
	worldCfg := mpi.Config{Size: ranks, Clock: tm}
	if plan != nil {
		worldCfg.Fault = plan
	}
	world, err := mpi.NewWorldWithConfig(worldCfg)
	if err != nil {
		return swaprt.RunStats{}, policylens.Report{}, err
	}
	iterCount := 0
	probe := func(rank int) float64 {
		if rank == degradeRank && iterCount > onset {
			return 100
		}
		return 1000
	}
	live, err := (&obsflag.Flags{Lens: true}).Live(world)
	if err != nil {
		return swaprt.RunStats{}, policylens.Report{}, err
	}
	cfg := swaprt.Config{
		Active: active,
		Policy: core.Greedy(),
		Probe:  probe,
		Lens:   live.Lens,
	}
	if plan != nil {
		cfg.TransferTimeout = 2 * time.Second
		var sup *swaprt.ManagerSupervisor
		if plan.HasManagerKills() {
			// The plan kills the manager for real: run a crash-restartable
			// supervisor over a per-scenario store so every scenario
			// exercises WAL replay and lease takeover from a cold directory.
			dir, err := os.MkdirTemp("", "swapexp-mgr-*")
			if err != nil {
				return swaprt.RunStats{}, policylens.Report{}, err
			}
			defer os.RemoveAll(dir)
			sup, err = swaprt.StartManagerSupervisor(swaprt.SupervisorConfig{
				Dir: dir, Policy: core.Greedy(), LeaseTTL: 250 * time.Millisecond, Clock: tm,
			})
			if err != nil {
				return swaprt.RunStats{}, policylens.Report{}, err
			}
			defer sup.Close()
			plan.SetManagerKiller(sup.Kill)
		}
		resilient := swaprt.NewDecisionStack(world, cfg, nil, sup, plan.ManagerCall)
		defer resilient.Close()
		cfg.Decider = resilient
	}
	var mu sync.Mutex
	var corrupt error
	stats, err := swaprt.RunWithStats(world, cfg, func(s *swaprt.Session) error {
		iter := 0
		acc := 0.0
		s.Register("iter", &iter)
		s.Register("acc", &acc)
		for !s.Done() && iter < iters {
			if s.Active() {
				v, err := s.Comm().AllReduceFloat64(mpi.OpSum, 1)
				if err != nil {
					return err
				}
				acc += v
				iter++
				if plan != nil {
					plan.Advance(s.Rank())
				}
				if s.Comm().Rank() == 0 {
					iterCount = iter
				}
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		// The soak's corruption oracle: every surviving active lane must
		// hold exactly the fault-free accumulator — a manager crash that
		// double-applied a swap or resurrected stale state shows up here.
		if s.Active() && acc != float64(iters*active) {
			mu.Lock()
			corrupt = fmt.Errorf("rank %d: corrupt accumulator %g, want %d", s.Rank(), acc, iters*active)
			mu.Unlock()
		}
		return nil
	})
	if err == nil {
		err = corrupt
	}
	return stats, live.Lens.Report(), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swapexp:", err)
	os.Exit(1)
}
