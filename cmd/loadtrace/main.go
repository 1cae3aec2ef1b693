// Command loadtrace emits CPU load traces from the paper's load models
// (Figures 2 and 3) as CSV time series, for inspection or for replay via
// the loadgen.Replay model.
//
// Example:
//
//	loadtrace -model onoff -p 0.3 -q 0.08 -horizon 3600
//	loadtrace -model hyperexp -lifetime 300 -horizon 3600
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "loadtrace:", err)
		os.Exit(1)
	}
}

// run parses args and writes the trace they describe to stdout. A
// parameter the model cannot run with is refused up front, by flag.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model    = fs.String("model", "onoff", "load model: onoff or hyperexp")
		p        = fs.Float64("p", 0.3, "onoff: per-step load probability")
		q        = fs.Float64("q", 0.08, "onoff: per-step unload probability")
		step     = fs.Float64("step", loadgen.DefaultStep, "model step seconds")
		lifetime = fs.Float64("lifetime", 300, "hyperexp: mean process lifetime (s)")
		arrival  = fs.Float64("arrival", 0.05, "hyperexp: arrival probability per step")
		horizon  = fs.Float64("horizon", 3600, "trace length (s)")
		interval = fs.Float64("interval", 0, "sampling interval (s); 0 = model step")
		seed     = fs.Int64("seed", 1, "random seed")
		segments = fs.Bool("segments", false, "emit change-point segments instead of samples")
		plot     = fs.Bool("plot", false, "render an ASCII chart instead of CSV")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
	for _, c := range []struct {
		flag string
		v    float64
		ok   bool
		want string
	}{
		{"-step", *step, *step > 0 && finite(*step), "a positive step"},
		{"-p", *p, *p >= 0 && *p <= 1, "a probability in [0, 1]"},
		{"-q", *q, *q >= 0 && *q <= 1, "a probability in [0, 1]"},
		{"-arrival", *arrival, *arrival >= 0 && *arrival <= 1, "a probability in [0, 1]"},
		{"-lifetime", *lifetime, *lifetime > 0 && finite(*lifetime), "a positive mean"},
		{"-horizon", *horizon, *horizon >= 0 && finite(*horizon), "a finite length, 0 or more"},
	} {
		if !c.ok {
			return fmt.Errorf("%s %g: want %s", c.flag, c.v, c.want)
		}
	}

	var m loadgen.Model
	switch *model {
	case "onoff":
		m = loadgen.OnOff{P: *p, Q: *q, Step: *step}
	case "hyperexp":
		h := loadgen.NewHyperExp(*lifetime)
		h.ArrivalProb = *arrival
		h.Step = *step
		m = h
	default:
		return fmt.Errorf("-model %q: want onoff or hyperexp", *model)
	}

	tr := loadgen.NewTrace(m.NewSource(rng.NewSource(*seed), 0))
	iv := *interval
	if iv <= 0 {
		iv = *step
	}
	if *plot {
		samples := tr.Sample(*horizon, iv)
		p := &trace.Plot{
			Title:  fmt.Sprintf("%s seed=%d", m.Describe(), *seed),
			XLabel: "time (s)", YLabel: "competing processes",
			Height: 8,
		}
		ys := make([]float64, len(samples))
		for i, v := range samples {
			p.X = append(p.X, float64(i)*iv)
			ys[i] = float64(v)
		}
		p.Series = []trace.PlotSeries{{Name: "load", Y: ys}}
		return p.Render(stdout)
	}
	fmt.Fprintf(stdout, "# %s seed=%d\n", m.Describe(), *seed)
	if *segments {
		starts, vals := tr.Segments(*horizon)
		fmt.Fprintln(stdout, "start_s,competing_processes")
		for i := range starts {
			if starts[i] > *horizon {
				break
			}
			fmt.Fprintf(stdout, "%.3f,%d\n", starts[i], vals[i])
		}
		return nil
	}
	fmt.Fprintln(stdout, "time_s,competing_processes")
	for i, v := range tr.Sample(*horizon, iv) {
		fmt.Fprintf(stdout, "%.3f,%d\n", float64(i)*iv, v)
	}
	return nil
}
