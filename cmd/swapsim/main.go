// Command swapsim runs one simulated application execution under a
// chosen technique and policy and reports the outcome, optionally with a
// per-iteration trace — the single-scenario companion to swapexp.
//
// Example:
//
//	swapsim -tech swap -policy safe -hosts 32 -active 4 \
//	        -p 0.2 -state 100e6 -iters 30 -trace
//	swapsim -lens -events-out run.jsonl && tracecheck -audit run.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/obs/obsflag"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/strategy"
	"repro/internal/swaprt/policylens"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "swapsim:", err)
		os.Exit(1)
	}
}

// run parses args, simulates the run they describe and reports it on
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("swapsim", flag.ContinueOnError)
	var (
		tech      = fs.String("tech", "swap", "technique: none, swap, dlb or cr")
		policy    = fs.String("policy", "greedy", "swap policy: greedy, safe or friendly")
		hosts     = fs.Int("hosts", 32, "allocated hosts (actives + spares)")
		active    = fs.Int("active", 4, "active processes")
		iters     = fs.Int("iters", 30, "application iterations")
		iterSec   = fs.Float64("itersec", 120, "unloaded compute seconds per iteration (reference host)")
		state     = fs.Float64("state", 1e6, "process state bytes")
		comm      = fs.Float64("comm", 1e6, "communication bytes per process per iteration")
		model     = fs.String("model", "onoff", "load model: onoff, hyperexp, trace or none")
		p         = fs.Float64("p", 0.2, "onoff load probability")
		lifetime  = fs.Float64("lifetime", 300, "hyperexp mean process lifetime (s)")
		traceFile = fs.String("tracefiles", "", "trace model: comma-separated change-point CSV files (cycled across hosts)")
		seed      = fs.Int64("seed", 1, "random seed")
		showTrace = fs.Bool("trace", false, "print the per-iteration trace")
		showGantt = fs.Bool("gantt", false, "print the host-occupancy timeline")
		compare   = fs.Bool("compare", false, "run all four techniques on the identical platform and print a comparison")

		// Custom policy knobs: any set flag overrides the named policy's
		// corresponding parameter, so arbitrary points of the paper's
		// policy space can be explored from the command line.
		payback = fs.Float64("payback", -1, "override: payback threshold in iterations (-1 = policy default)")
		minProc = fs.Float64("minproc", -1, "override: minimum process improvement fraction")
		minApp  = fs.Float64("minapp", -1, "override: minimum application improvement fraction")
		history = fs.Float64("history", -1, "override: history window seconds")
	)
	traceFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if traceFlags.Telemetry || traceFlags.MetricsOut != "" {
		// The telemetry hub and the Prometheus registry observe the live
		// runtime; a simulated run has neither wall time nor transports.
		return fmt.Errorf("-telemetry/-metrics-out apply to live runs (swaprun); analyze simulated traces offline with -events-out + tracecheck -analyze")
	}

	technique, err := strategy.ByName(*tech)
	if err != nil {
		return err
	}
	pol, err := core.Named(*policy)
	if err != nil {
		return err
	}
	custom := false
	if *payback >= 0 {
		pol.PaybackThreshold, custom = *payback, true
	}
	if *minProc >= 0 {
		pol.MinProcImprovement, custom = *minProc, true
	}
	if *minApp >= 0 {
		pol.MinAppImprovement, custom = *minApp, true
	}
	if *history >= 0 {
		pol.HistoryWindow, custom = *history, true
	}
	if custom {
		pol.Name = pol.Name + "+custom"
		if err := pol.Validate(); err != nil {
			return err
		}
	}
	var load loadgen.Model
	switch *model {
	case "onoff":
		load = loadgen.NewOnOff(*p)
	case "hyperexp":
		load = loadgen.NewHyperExp(*lifetime)
	case "none":
		load = loadgen.Constant{N: 0}
	case "trace":
		if *traceFile == "" {
			return fmt.Errorf("-model trace needs -tracefiles")
		}
		var set loadgen.TraceSet
		for _, path := range strings.Split(*traceFile, ",") {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			segs, tail, err := loadgen.ParseTraceCSV(f)
			_ = f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			set.Traces = append(set.Traces, loadgen.Replay{Segments: segs, Tail: tail})
		}
		load = set
	default:
		return fmt.Errorf("unknown load model %q", *model)
	}

	a := app.Iterative{
		Iterations:      *iters,
		WorkPerProcIter: *iterSec * app.RefSpeed,
		BytesPerIter:    *comm,
		StateBytes:      *state,
	}
	if *compare {
		fmt.Fprintf(stdout, "comparing all techniques: %s, %s, %d/%d hosts, seed %d\n\n",
			load.Describe(), a, *active, *hosts, *seed)
		fmt.Fprintf(stdout, "%-6s %12s %14s %10s %12s\n", "tech", "total (s)", "mean iter (s)", "events", "overhead (s)")
		for _, name := range []string{"none", "swap", "dlb", "cr"} {
			tech, err := strategy.ByName(name)
			if err != nil {
				return err
			}
			k := simkern.New()
			plat := platform.New(k, platform.Default(*hosts, load), rng.NewSource(*seed))
			r := tech.Run(plat, strategy.Scenario{Active: *active, App: a, Policy: pol})
			fmt.Fprintf(stdout, "%-6s %12.1f %14.1f %10d %12.1f\n",
				name, r.TotalTime, r.MeanIterTime(), r.Swaps, r.Overhead)
		}
		return nil
	}

	k := simkern.New()
	plat := platform.New(k, platform.Default(*hosts, load), rng.NewSource(*seed))
	// Simulated runs trace on the virtual clock, producing the same
	// Chrome/Perfetto trace format as live swaprun executions.
	tracer, err := traceFlags.Tracer(*active, obs.WithClock(k.Now))
	if err != nil {
		return err
	}
	k.SetTracer(tracer)
	if traceFlags.Causal && tracer != nil {
		// Simulated causal clocks stamp the same MsgSend/MsgRecv
		// happens-before edges as a live -causal world, on virtual time.
		k.SetCausal(obs.NewCausal(*active))
	}
	sc := strategy.Scenario{Active: *active, App: a, Policy: pol}
	if traceFlags.Lens {
		// The lens audits on the virtual clock: its events land in the
		// run's trace beside the decisions they judge.
		sc.Lens = policylens.New(policylens.Config{Tracer: tracer})
	}
	res := technique.Run(plat, sc)
	if err := traceFlags.Write(tracer, func(format string, args ...any) {
		fmt.Fprintf(stdout, format+"\n", args...)
	}); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "technique       %s\n", res.Strategy)
	fmt.Fprintf(stdout, "policy          %s\n", pol)
	fmt.Fprintf(stdout, "load model      %s\n", load.Describe())
	fmt.Fprintf(stdout, "application     %s\n", a)
	fmt.Fprintf(stdout, "hosts/active    %d / %d\n", *hosts, *active)
	fmt.Fprintf(stdout, "total time      %.1f s\n", res.TotalTime)
	fmt.Fprintf(stdout, "startup         %.1f s\n", res.StartupTime)
	fmt.Fprintf(stdout, "mean iteration  %.1f s\n", res.MeanIterTime())
	fmt.Fprintf(stdout, "swap/ckpt count %d\n", res.Swaps)
	fmt.Fprintf(stdout, "overhead        %.1f s\n", res.Overhead)
	fmt.Fprintf(stdout, "final hosts     %v\n", res.FinalHosts)
	if l := res.Lens; l != nil {
		fmt.Fprintf(stdout, "lens            %d decisions, %d realized, %d mispredicted (tolerance %g)\n",
			l.Decisions, l.Realized, l.Mispredicts, l.Tolerance)
	}

	if *showGantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, strategy.Gantt(res))
	}

	if *showTrace {
		fmt.Fprintln(stdout)
		tbl := &trace.Table{
			Title:  "per-iteration trace",
			Header: []string{"iter", "start", "compute_done", "end", "overhead", "hosts"},
		}
		for _, it := range res.Iters {
			tbl.AddRow(
				fmt.Sprint(it.Index),
				trace.FormatFloat(it.Start),
				trace.FormatFloat(it.ComputeDone),
				trace.FormatFloat(it.End),
				trace.FormatFloat(it.Overhead),
				fmt.Sprint(it.Hosts),
			)
		}
		if err := tbl.WriteText(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		for _, e := range res.Events {
			fmt.Fprintf(stdout, "%10.1f  %-10s %s\n", e.T, e.Kind, e.Detail())
		}
	}
	return nil
}
