// Package obsflag binds the standard observability flags shared by the
// swaprun and swapsim commands — the tracing trio -trace-out,
// -events-out and -trace-ranks, plus the telemetry pair -telemetry and
// -telemetry-interval, the -metrics-out dump, and the post-mortem pair
// -causal and -flight-dir — so every command exports the same formats
// with the same spelling.
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

// Flags holds the registered tracing flag values after flag.Parse.
type Flags struct {
	TraceOut  string // Chrome trace_event JSON (ui.perfetto.dev loadable)
	EventsOut string // JSONL event log, one event per line
	Ranks     string // comma-separated rank filter, "" = every rank

	Telemetry         bool          // enable the live telemetry hub
	TelemetryInterval time.Duration // snapshot/report cadence
	MetricsOut        string        // final Prometheus-text metrics dump

	Causal       bool   // arm Lamport causal clocks + MsgSend/MsgRecv events
	FlightDir    string // flight-recorder dump directory ("" = recorder off)
	FlightEvents int    // per-rank flight ring capacity (0 = flight.DefaultEvents)

	Lens          bool    // arm the policy lens (payback audit + shadow policies)
	LensTolerance float64 // relative payback error counted as a misprediction

	// Recorder is the flight recorder Tracer attached, nil when
	// -flight-dir was not given. Commands use it for telemetry probes
	// and a final explicit dump.
	Recorder *flight.Recorder
}

// Register binds the tracing flags to fs (flag.CommandLine in the
// commands) and returns the struct their values land in.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome/Perfetto trace_event JSON file (open at ui.perfetto.dev)")
	fs.StringVar(&f.EventsOut, "events-out", "", "write a JSONL event log file")
	fs.StringVar(&f.Ranks, "trace-ranks", "", "restrict tracing to these comma-separated ranks (empty = all)")
	fs.BoolVar(&f.Telemetry, "telemetry", false, "enable live telemetry (windowed per-rank series, slowdown detection, /telemetry on -debug-addr)")
	fs.DurationVar(&f.TelemetryInterval, "telemetry-interval", 250*time.Millisecond, "telemetry snapshot cadence (with -telemetry)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a final Prometheus-text metrics dump file")
	fs.BoolVar(&f.Causal, "causal", false, "stamp messages with Lamport clocks and trace MsgSend/MsgRecv happens-before edges")
	fs.StringVar(&f.FlightDir, "flight-dir", "", "enable the crash-safe flight recorder, dumping per-rank JSONL windows to this directory on aborts/panics/close")
	fs.IntVar(&f.FlightEvents, "flight-events", 0, "flight-recorder ring capacity per rank (0 = default)")
	fs.BoolVar(&f.Lens, "lens", false, "arm the policy lens: audit realized payback of committed swaps, replay shadow policies, /policy on -debug-addr")
	fs.Float64Var(&f.LensTolerance, "lens-tolerance", 0, "relative payback prediction error counted as a misprediction (0 = lens default)")
	return f
}

// Enabled reports whether any trace output was requested, i.e. whether
// the run should buffer a full trace. The flight recorder does not count
// here — it needs a tracer but not trace buffering (see Tracer).
func (f *Flags) Enabled() bool { return f.TraceOut != "" || f.EventsOut != "" }

// ParseRanks parses a -trace-ranks list like "0,2,5".
func ParseRanks(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.Atoi(part)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("obsflag: bad rank %q in -trace-ranks (want non-negative integers)", part)
		}
		out = append(out, r)
	}
	return out, nil
}

// Tracer builds a tracer for a world of nranks ranks honoring the rank
// filter, or nil (safe everywhere) when neither trace output nor the
// flight recorder was requested. Trace buffering is enabled only when an
// output file was asked for; with -flight-dir alone the tracer exists
// solely to feed the attached flight recorder, so emit sites construct
// events but nothing accumulates unbounded. Extra options — obs.WithClock
// with the simulator's virtual clock; live runs go through Live — are
// appended after the filter.
func (f *Flags) Tracer(nranks int, opts ...obs.Option) (*obs.Tracer, error) {
	if !f.Enabled() && f.FlightDir == "" {
		return nil, nil
	}
	if f.Ranks != "" {
		ranks, err := ParseRanks(f.Ranks)
		if err != nil {
			return nil, err
		}
		for _, r := range ranks {
			if r >= nranks {
				return nil, fmt.Errorf("obsflag: -trace-ranks %d out of world [0,%d)", r, nranks)
			}
		}
		opts = append([]obs.Option{obs.WithRanks(ranks)}, opts...)
	}
	tr := obs.New(nranks, opts...)
	if f.Enabled() {
		tr.Enable()
	}
	if f.FlightDir != "" {
		f.Recorder = flight.New(nranks, flight.Config{
			Dir:    f.FlightDir,
			Events: f.FlightEvents,
			Clock:  tr.Now,
		})
		tr.AttachSink(f.Recorder)
	}
	return tr, nil
}

// Live is the observability of one live run. Every part is nil (and
// safe to use) unless its flag asked for it.
type Live struct {
	Tracer *obs.Tracer
	Hub    *swaprt.TelemetryHub
	Lens   *policylens.Lens
}

// Live builds the tracer, flight recorder, telemetry hub and policy lens
// the flags ask for around world, all reading the world's clock through
// one seconds view: whatever a live run writes — rank events, lens and
// anomaly events, flight markers, telemetry series — is on the timeline
// the runtime itself measures iterations and swaps on.
func (f *Flags) Live(world *mpi.World) (Live, error) {
	secs := clock.Seconds(world.Clock())
	tracer, err := f.Tracer(world.Size(), obs.WithClock(secs))
	if err != nil {
		return Live{}, err
	}
	var hub *swaprt.TelemetryHub
	if f.Telemetry {
		hub = swaprt.NewTelemetryHub(secs)
		world.SetSendLatencySampling(true)
	}
	if cz := world.Causal(); cz != nil {
		hub.SetCausalProbe(func() swaprt.CausalTelemetry {
			return swaprt.CausalTelemetry{Enabled: true, MaxClock: cz.MaxClock(), Sends: cz.Sends()}
		})
	}
	if rec := f.Recorder; rec != nil {
		hub.SetFlightProbe(func() swaprt.FlightTelemetry {
			st := rec.Status()
			return swaprt.FlightTelemetry{Enabled: true, Buffered: st.Buffered,
				Observed: st.Observed, Dumps: st.Dumps, LastDump: st.LastDump, Dir: st.Dir}
		})
	}
	var lens *policylens.Lens
	if f.Lens {
		lens = policylens.New(policylens.Config{
			Tolerance: f.LensTolerance,
			Tracer:    tracer,
			Registry:  world.Metrics(),
			Clock:     secs,
		})
		hub.SetLensProbe(lens.Report)
	}
	return Live{Tracer: tracer, Hub: hub, Lens: lens}, nil
}

// Write exports the collected events to the requested files. A nil
// tracer is a no-op, so callers run it unconditionally after the run.
// Each file written is reported through logf (if non-nil).
func (f *Flags) Write(tr *obs.Tracer, logf func(string, ...any)) error {
	if tr == nil {
		return nil
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if f.TraceOut != "" {
		if err := writeFile(f.TraceOut, tr.WriteChromeTrace); err != nil {
			return err
		}
		logf("wrote Chrome trace (%d events) to %s — open at ui.perfetto.dev", tr.Len(), f.TraceOut)
	}
	if f.EventsOut != "" {
		if err := writeFile(f.EventsOut, tr.WriteJSONL); err != nil {
			return err
		}
		logf("wrote JSONL event log (%d events) to %s", tr.Len(), f.EventsOut)
	}
	if d := tr.Dropped(); d > 0 {
		logf("warning: %d events dropped (per-rank buffer limit)", d)
	}
	return nil
}

// WriteMetrics dumps the registry in Prometheus text format to the
// -metrics-out file. No file requested or a nil registry is a no-op, so
// callers run it unconditionally after the run.
func (f *Flags) WriteMetrics(reg *obs.Registry, logf func(string, ...any)) error {
	if f.MetricsOut == "" || reg == nil {
		return nil
	}
	if err := writeFile(f.MetricsOut, reg.WritePrometheus); err != nil {
		return err
	}
	if logf != nil {
		logf("wrote Prometheus metrics dump to %s", f.MetricsOut)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return fh.Close()
}
