// Command swapsim runs one simulated application execution under a
// chosen technique and policy and reports the outcome, optionally with a
// per-iteration trace — the single-scenario companion to swapexp.
//
// Example:
//
//	swapsim -tech swap -policy safe -hosts 32 -active 4 \
//	        -p 0.2 -state 100e6 -iters 30 -trace
package main

import (
	"flag"
	"fmt"
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
	"repro/internal/trace"
)

func main() {
	var (
		tech      = flag.String("tech", "swap", "technique: none, swap, dlb or cr")
		policy    = flag.String("policy", "greedy", "swap policy: greedy, safe or friendly")
		hosts     = flag.Int("hosts", 32, "allocated hosts (actives + spares)")
		active    = flag.Int("active", 4, "active processes")
		iters     = flag.Int("iters", 30, "application iterations")
		iterSec   = flag.Float64("itersec", 120, "unloaded compute seconds per iteration (reference host)")
		state     = flag.Float64("state", 1e6, "process state bytes")
		comm      = flag.Float64("comm", 1e6, "communication bytes per process per iteration")
		model     = flag.String("model", "onoff", "load model: onoff, hyperexp, trace or none")
		p         = flag.Float64("p", 0.2, "onoff load probability")
		lifetime  = flag.Float64("lifetime", 300, "hyperexp mean process lifetime (s)")
		traceFile = flag.String("tracefiles", "", "trace model: comma-separated change-point CSV files (cycled across hosts)")
		seed      = flag.Int64("seed", 1, "random seed")
		showTrace = flag.Bool("trace", false, "print the per-iteration trace")
		showGantt = flag.Bool("gantt", false, "print the host-occupancy timeline")
		compare   = flag.Bool("compare", false, "run all four techniques on the identical platform and print a comparison")

		// Custom policy knobs: any set flag overrides the named policy's
		// corresponding parameter, so arbitrary points of the paper's
		// policy space can be explored from the command line.
		payback = flag.Float64("payback", -1, "override: payback threshold in iterations (-1 = policy default)")
		minProc = flag.Float64("minproc", -1, "override: minimum process improvement fraction")
		minApp  = flag.Float64("minapp", -1, "override: minimum application improvement fraction")
		history = flag.Float64("history", -1, "override: history window seconds")
	)
	traceFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	if traceFlags.Telemetry || traceFlags.MetricsOut != "" {
		// The telemetry hub and the Prometheus registry observe the live
		// runtime; a simulated run has neither wall time nor transports.
		fatal(fmt.Errorf("-telemetry/-metrics-out apply to live runs (swaprun); analyze simulated traces offline with -events-out + tracecheck -analyze"))
	}

	technique, err := strategy.ByName(*tech)
	if err != nil {
		fatal(err)
	}
	pol, err := core.Named(*policy)
	if err != nil {
		fatal(err)
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
			fatal(err)
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
			fatal(fmt.Errorf("-model trace needs -tracefiles"))
		}
		var set loadgen.TraceSet
		for _, path := range strings.Split(*traceFile, ",") {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			segs, tail, err := loadgen.ParseTraceCSV(f)
			_ = f.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			set.Traces = append(set.Traces, loadgen.Replay{Segments: segs, Tail: tail})
		}
		load = set
	default:
		fatal(fmt.Errorf("unknown load model %q", *model))
	}

	a := app.Iterative{
		Iterations:      *iters,
		WorkPerProcIter: *iterSec * app.RefSpeed,
		BytesPerIter:    *comm,
		StateBytes:      *state,
	}
	if *compare {
		fmt.Printf("comparing all techniques: %s, %s, %d/%d hosts, seed %d\n\n",
			load.Describe(), a, *active, *hosts, *seed)
		fmt.Printf("%-6s %12s %14s %10s %12s\n", "tech", "total (s)", "mean iter (s)", "events", "overhead (s)")
		for _, name := range []string{"none", "swap", "dlb", "cr"} {
			tech, err := strategy.ByName(name)
			if err != nil {
				fatal(err)
			}
			k := simkern.New()
			plat := platform.New(k, platform.Default(*hosts, load), rng.NewSource(*seed))
			r := tech.Run(plat, strategy.Scenario{Active: *active, App: a, Policy: pol})
			fmt.Printf("%-6s %12.1f %14.1f %10d %12.1f\n",
				name, r.TotalTime, r.MeanIterTime(), r.Swaps, r.Overhead)
		}
		return
	}

	k := simkern.New()
	plat := platform.New(k, platform.Default(*hosts, load), rng.NewSource(*seed))
	// Simulated runs trace on the virtual clock, producing the same
	// Chrome/Perfetto trace format as live swaprun executions.
	tracer, err := traceFlags.Tracer(*active, obs.WithClock(k.Now))
	if err != nil {
		fatal(err)
	}
	k.SetTracer(tracer)
	if traceFlags.Causal && tracer != nil {
		// Simulated causal clocks stamp the same MsgSend/MsgRecv
		// happens-before edges as a live -causal world, on virtual time.
		k.SetCausal(obs.NewCausal(*active))
	}
	res := technique.Run(plat, strategy.Scenario{Active: *active, App: a, Policy: pol})
	if err := traceFlags.Write(tracer, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}); err != nil {
		fatal(err)
	}

	fmt.Printf("technique       %s\n", res.Strategy)
	fmt.Printf("policy          %s\n", pol)
	fmt.Printf("load model      %s\n", load.Describe())
	fmt.Printf("application     %s\n", a)
	fmt.Printf("hosts/active    %d / %d\n", *hosts, *active)
	fmt.Printf("total time      %.1f s\n", res.TotalTime)
	fmt.Printf("startup         %.1f s\n", res.StartupTime)
	fmt.Printf("mean iteration  %.1f s\n", res.MeanIterTime())
	fmt.Printf("swap/ckpt count %d\n", res.Swaps)
	fmt.Printf("overhead        %.1f s\n", res.Overhead)
	fmt.Printf("final hosts     %v\n", res.FinalHosts)

	if *showGantt {
		fmt.Println()
		fmt.Print(strategy.Gantt(res))
	}

	if *showTrace {
		fmt.Println()
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
		if err := tbl.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		for _, e := range res.Events {
			fmt.Printf("%10.1f  %-10s %s\n", e.T, e.Kind, e.Detail())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swapsim:", err)
	os.Exit(1)
}
