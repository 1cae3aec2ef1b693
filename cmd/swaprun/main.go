// Command swaprun drives a synthetic iterative application on the live
// swapping runtime (internal/swaprt over internal/mpi): a world of ranks
// in this process, an injectable load schedule that slows chosen "hosts"
// mid-run, and either an in-process swap manager or a remote swapmgr
// daemon. It is the one end-to-end harness for the runtime half of the
// reproduction: a single run, or with -scenarios a sweep of varied ones.
// Its smoke scenarios (go test ./cmd/swaprun -run Smoke) call run
// in-process.
//
// Examples:
//
//	swaprun -ranks 4 -active 2 -iters 30 -tcp
//	swaprun -ranks 6 -active 3 -policy safe -inject 0@0.5:4,2@1:6
//	swaprun -scenarios 200 -accel 50 -chaos 'seed=7;mgrrestart:after=4,downms=100'
//	swapmgr -addr 127.0.0.1:7070 &  swaprun -manager 127.0.0.1:7070
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/obs"
	"repro/internal/obs/obsflag"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "swaprun:", err)
		os.Exit(1)
	}
}

// telemetryCadence is the swap-handler report interval a -telemetry run
// uses when -handler does not set one.
const telemetryCadence = 250 * time.Millisecond

// options is one parsed command line.
type options struct {
	ranks, active, iters, state, scenarios int
	work, accel                            float64
	policy                                 core.Policy
	injections                             []injection
	manager, chaos, debugAddr, mgrStore    string
	handler, transfer, mgrTTL              time.Duration
	tcp                                    bool
	obs                                    *obsflag.Flags
}

// run parses args, runs the scenarios they ask for and reports them on
// stdout, logging on stderr. Everything a scenario starts — world,
// manager, debug listener, injection timers — has stopped by the time
// it returns, so one process can call it many times.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swaprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.ranks, "ranks", 4, "world size (actives + spares)")
	fs.IntVar(&o.active, "active", 2, "active processes")
	fs.IntVar(&o.iters, "iters", 40, "iterations")
	fs.Float64Var(&o.work, "work", 20, "unloaded compute milliseconds per iteration per rank")
	fs.IntVar(&o.state, "state", 4096, "extra registered state bytes per process")
	policy := fs.String("policy", "greedy", "swap policy: greedy, safe or friendly")
	fs.StringVar(&o.manager, "manager", "", "remote swapmgr address (overrides -policy decisions locally)")
	inject := fs.String("inject", "1@0.3:8", "load schedule: rank@seconds:factor[,...]; empty for none")
	fs.DurationVar(&o.handler, "handler", 0, "swap-handler probe interval (0 = probe at swap points only)")
	fs.BoolVar(&o.tcp, "tcp", false, "use the TCP transport between ranks instead of in-process")
	fs.StringVar(&o.chaos, "chaos", "", "fault plan, e.g. 'seed=7;die:rank=2,iter=3;mgrdown:after=2,count=6' (see internal/mpi/fault); empty for none")
	fs.DurationVar(&o.transfer, "transfer-timeout", 0, "per-leg state-transfer deadline before a swap aborts (0 = runtime default)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "HTTP debug endpoint serving /metrics (Prometheus), /telemetry (JSON), /policy and /healthz (e.g. 127.0.0.1:7081; port 0 picks one and logs it)")
	fs.Float64Var(&o.accel, "accel", 1, "time acceleration: run the whole schedule (work, injections, backoffs, timeouts) on a virtual clock this many times faster than wall time")
	fs.StringVar(&o.mgrStore, "mgr-store", "", "durable manager store directory: runs a crash-restartable in-process swapmgr (WAL + leader lease) instead of plain local decisions; a temporary one is made for mgrkill/mgrrestart chaos")
	fs.DurationVar(&o.mgrTTL, "mgr-lease-ttl", 2*time.Second, "manager leader-lease duration (virtual time); a restarted manager waits out the dead leader's lease")
	fs.IntVar(&o.scenarios, "scenarios", 1, "run this many scenarios on fresh worlds, rotating which active rank each injection slows and when, and print their totals")
	o.obs = obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.check(*policy, *inject); err != nil {
		return err
	}

	logger := log.New(stderr, "", log.LstdFlags)
	if o.accel != 1 {
		logger.Printf("accel: virtual time runs %gx wall time", o.accel)
	}
	if o.scenarios > 1 {
		return o.sweep(stdout, logger)
	}
	start := time.Now()
	stats, _, err := o.scenario(0, logger)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "completed %d iterations on %d/%d ranks in %.2fs\n",
		o.iters, o.active, o.ranks, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "runtime stats: %s\n", stats)
	return nil
}

// check resolves -policy and -inject and refuses, before any world
// exists, every flag value run cannot take, naming the flag at fault.
func (o *options) check(policy, inject string) error {
	var err error
	if o.policy, err = core.Named(policy); err != nil {
		return err
	}
	switch {
	case o.active < 1 || o.active > o.ranks:
		return fmt.Errorf("-active %d: want 1..%d (-ranks)", o.active, o.ranks)
	case o.iters < 1:
		return fmt.Errorf("-iters %d: want at least 1", o.iters)
	case o.state < 0:
		return fmt.Errorf("-state %d: want a non-negative byte count", o.state)
	case !(o.work >= 0) || math.IsInf(o.work, 1):
		return fmt.Errorf("-work %g: want finite non-negative milliseconds", o.work)
	case !(o.accel > 0) || math.IsInf(o.accel, 1):
		return fmt.Errorf("-accel %g: want a finite positive factor", o.accel)
	case o.scenarios < 1:
		return fmt.Errorf("-scenarios %d: want at least 1", o.scenarios)
	}
	if o.scenarios > 1 {
		// A sweep's scenarios would overwrite one another's files, store
		// and port: these name the output of a single run.
		for _, f := range [][2]string{
			{"-trace-out", o.obs.TraceOut}, {"-events-out", o.obs.EventsOut},
			{"-metrics-out", o.obs.MetricsOut}, {"-flight-dir", o.obs.FlightDir},
			{"-debug-addr", o.debugAddr}, {"-mgr-store", o.mgrStore},
		} {
			if f[1] != "" {
				return fmt.Errorf("%s belongs to one run; drop it or -scenarios %d", f[0], o.scenarios)
			}
		}
	}
	if o.chaos != "" {
		if _, err := fault.Parse(o.chaos); err != nil {
			return err
		}
	}
	o.injections, err = parseInjections(inject, o.ranks)
	return err
}

// injection is one scheduled load event: after Delay, the host of Rank
// runs Factor times slower.
type injection struct {
	Rank   int
	Delay  time.Duration
	Factor float64
}

func parseInjections(spec string, ranks int) ([]injection, error) {
	if spec == "" {
		return nil, nil
	}
	var out []injection
	for _, part := range strings.Split(spec, ",") {
		rankS, rest, ok := strings.Cut(part, "@")
		secsS, factorS, ok2 := strings.Cut(rest, ":")
		if !ok || !ok2 {
			return nil, fmt.Errorf("-inject %q: want rank@seconds:factor", part)
		}
		rank, err := strconv.Atoi(rankS)
		secs, err2 := strconv.ParseFloat(secsS, 64)
		factor, err3 := strconv.ParseFloat(factorS, 64)
		if err := errors.Join(err, err2, err3); err != nil {
			return nil, fmt.Errorf("-inject %q: %v", part, err)
		}
		switch {
		case rank < 0 || rank >= ranks:
			return nil, fmt.Errorf("-inject %q: rank %d out of world [0,%d)", part, rank, ranks)
		case !(secs >= 0) || math.IsInf(secs, 1):
			return nil, fmt.Errorf("-inject %q: seconds must be finite and non-negative", part)
		case !(factor >= 1) || math.IsInf(factor, 1):
			return nil, fmt.Errorf("-inject %q: factor must be finite and >= 1", part)
		}
		out = append(out, injection{Rank: rank, Delay: time.Duration(secs * float64(time.Second)), Factor: factor})
	}
	return out, nil
}

// rotate is scenario i's load schedule: an injection that slows active
// rank r slows (r+i) mod -active instead, (7i mod iters/2) iterations of
// work later, so a sweep degrades either active slot at many points of
// the run (with -work 0 the onset stays put). Scenario 0 is the
// schedule as given.
func (o *options) rotate(i int) []injection {
	out := append([]injection(nil), o.injections...)
	for k, in := range out {
		if in.Rank >= o.active {
			continue
		}
		out[k].Rank = (in.Rank + i) % o.active
		if half := o.iters / 2; half > 0 {
			out[k].Delay += time.Duration(float64(7*i%half) * o.work * float64(time.Millisecond))
		}
	}
	return out
}

// injector tracks per-rank slowdown factors.
type injector struct {
	mu     sync.Mutex
	factor []float64
}

func (in *injector) slowdown(rank int) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.factor[rank]
}

func (in *injector) probe(rank int) float64 { return 1000 / in.slowdown(rank) }

func (in *injector) apply(i injection) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.factor[i.Rank] = i.Factor
}

// sweep runs -scenarios scenarios back to back and prints their totals.
// A failed scenario is logged and counted; any failure fails the sweep.
func (o *options) sweep(stdout io.Writer, logger *log.Logger) error {
	quiet := log.New(io.Discard, "", 0)
	start := time.Now()
	var ok, failed, swaps, aborts, quarantined, decisions int
	var realized, mispredicts, shadow, divergences int
	for i := 0; i < o.scenarios; i++ {
		stats, lens, err := o.scenario(i, quiet)
		if err != nil {
			failed++
			logger.Printf("scenario %d: %v", i, err)
			continue
		}
		ok++
		rep := lens.Report()
		swaps += stats.Swaps
		aborts += stats.SwapAborts
		quarantined += stats.Quarantined
		decisions += stats.Decisions
		realized += rep.Realized
		mispredicts += rep.Mispredicts
		for _, s := range rep.Shadow {
			shadow += s.Decisions
			divergences += s.Decisions - s.Agreements
		}
	}
	fmt.Fprintf(stdout, "sweep: %d ok, %d failed, %d swaps (%d aborted, %d quarantined), %d decisions in %.1fs wall",
		ok, failed, swaps, aborts, quarantined, decisions, time.Since(start).Seconds())
	if o.obs.Lens {
		fmt.Fprintf(stdout, "; lens: %d paybacks realized (%d mispredicted), %d shadow evals (%d divergences)",
			realized, mispredicts, shadow, divergences)
	}
	fmt.Fprintln(stdout)
	if failed > 0 {
		return fmt.Errorf("%d/%d scenarios failed", failed, o.scenarios)
	}
	return nil
}

// scenario is one live run: a fresh world on its own clock, its
// observability, the decision stack and the application loop, checked
// at the end against the exact fault-free accumulator on every active
// lane. Scenario i's injections are rotate(i).
func (o *options) scenario(i int, logger *log.Logger) (swaprt.RunStats, *policylens.Lens, error) {
	// One clock, handed to the world, drives everything that waits or
	// stamps: work spinning, load injections, swap timeouts, retry
	// backoffs, handler tickers, trace and telemetry timestamps. At
	// -accel 1 it is the wall clock.
	var tm clock.Clock = clock.Real{}
	if o.accel != 1 {
		tm = clock.NewScaled(o.accel)
	}
	inj := &injector{factor: make([]float64, o.ranks)}
	for r := range inj.factor {
		inj.factor[r] = 1
	}
	for _, in := range o.rotate(i) {
		slow := func() {
			logger.Printf("inject: host of rank %d now %gx slower", in.Rank, in.Factor)
			inj.apply(in)
		}
		// At 0 s means from the first iteration, not from whenever a timer
		// goroutine on a busy host first gets to run.
		if in.Delay == 0 {
			slow()
			continue
		}
		defer tm.AfterFunc(in.Delay, slow).Stop()
	}

	var plan *fault.Plan
	worldCfg := mpi.Config{Size: o.ranks, TCP: o.tcp, Clock: tm, Causal: o.obs.Causal}
	if o.chaos != "" {
		var err error
		if plan, err = fault.Parse(o.chaos); err != nil {
			return swaprt.RunStats{}, nil, err
		}
		// Only a non-nil plan goes into the interface field: a typed nil
		// would arm an injector that panics on first use.
		worldCfg.Fault = plan
		logger.Printf("chaos: fault plan armed: %s", o.chaos)
	}
	world, err := mpi.NewWorldWithConfig(worldCfg)
	if err != nil {
		return swaprt.RunStats{}, nil, err
	}
	defer world.Close()

	// The tracer, flight recorder, telemetry hub and lens all read the
	// world's clock, as the runtime does: one timeline at any -accel.
	live, err := o.obs.Live(world)
	if err != nil {
		return swaprt.RunStats{}, nil, err
	}
	// Telemetry rides on the swap handlers' periodic reports; give them
	// the telemetry cadence unless -handler picked its own.
	handler := o.handler
	if live.Hub != nil && handler == 0 {
		handler = telemetryCadence
	}
	if world.Causal() != nil {
		logger.Printf("causal: Lamport clocks armed on %d ranks", o.ranks)
	}
	if o.obs.Recorder != nil {
		logger.Printf("flight: recorder armed, dumps go to %s", o.obs.FlightDir)
	}
	cfg := swaprt.Config{
		Active:          o.active,
		Policy:          o.policy,
		Probe:           inj.probe,
		HandlerInterval: handler,
		TransferTimeout: o.transfer,
		Tracer:          live.Tracer,
		Telemetry:       live.Hub,
		Lens:            live.Lens,
	}

	// A fault plan with mgrkill/mgrrestart rules needs a manager that can
	// actually die and recover; give it a durable store home of its own
	// unless the user named one.
	storeDir := o.mgrStore
	if storeDir == "" && plan != nil && plan.HasManagerKills() {
		if storeDir, err = os.MkdirTemp("", "swapmgr-store-*"); err != nil {
			return swaprt.RunStats{}, nil, err
		}
		defer os.RemoveAll(storeDir)
		logger.Printf("mgr-store: chaos plan kills the manager; using temporary store %s", storeDir)
	}
	var primary swaprt.Decider
	var sup *swaprt.ManagerSupervisor
	if storeDir != "" {
		// Crash-restartable manager: a supervisor runs WAL-backed swapmgr
		// incarnations over the store directory, fenced by a leader lease
		// on the virtual clock. The fault plan's kill rules crash it for
		// real; the decision stack re-finds the recovered leader.
		sup, err = swaprt.StartManagerSupervisor(swaprt.SupervisorConfig{
			Dir: storeDir, Policy: o.policy, LeaseTTL: o.mgrTTL,
			Clock: tm, Tracer: live.Tracer, Logf: logger.Printf,
		})
		if err != nil {
			return swaprt.RunStats{}, nil, err
		}
		defer sup.Close()
		logger.Printf("mgr-store: durable swapmgr on %s (store %s, lease %s)", sup.Addr(), storeDir, o.mgrTTL)
		if plan != nil {
			plan.SetManagerKiller(sup.Kill)
		}
	} else if o.manager != "" {
		primary = &swaprt.RemoteDecider{Addr: o.manager}
		logger.Printf("using remote swap manager at %s", o.manager)
	}
	// A manager that can fail — supervised, remote, or a local stand-in a
	// chaos plan takes down — is consulted through the resilient stack.
	if sup != nil || primary != nil || plan != nil {
		var gate func() error
		if plan != nil {
			gate = plan.ManagerCall
		}
		resilient := swaprt.NewDecisionStack(world, cfg, primary, sup, gate)
		defer resilient.Close()
		cfg.Decider = resilient
		live.Hub.SetCircuitProbe(resilient.State)
	}

	if o.debugAddr != "" {
		stop, err := serveDebug(o.debugAddr, world, live, logger)
		if err != nil {
			return swaprt.RunStats{}, nil, err
		}
		defer stop()
	}

	var mu sync.Mutex
	var corrupt error
	want := float64(o.iters * o.active)
	stats, err := swaprt.RunWithStats(world, cfg, func(s *swaprt.Session) error {
		iter := 0
		acc := 0.0
		pad := make([]byte, o.state)
		s.Register("iter", &iter)
		s.Register("acc", &acc)
		s.Register("pad", &pad)
		for !s.Done() && iter < o.iters {
			if s.Active() {
				busyWait(tm, time.Duration(o.work*inj.slowdown(s.Rank()))*time.Millisecond)
				v, err := s.Comm().AllReduceFloat64(mpi.OpSum, 1)
				if err != nil {
					return err
				}
				acc += v
				iter++
				if plan != nil {
					plan.Advance(s.Rank())
				}
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		// The corruption oracle: every surviving active lane must hold
		// exactly the fault-free accumulator — a swap that lost or
		// double-applied state, or a manager crash that resurrected a stale
		// one, shows up here.
		if s.Active() && acc != want {
			mu.Lock()
			corrupt = fmt.Errorf("rank %d: corrupt accumulator %g, want %g", s.Rank(), acc, want)
			mu.Unlock()
		}
		if s.Active() && s.Comm().Rank() == 0 {
			logger.Printf("finished %d iterations on rank %d", iter, s.Rank())
		}
		return nil
	})
	if err != nil {
		return stats, nil, err
	}
	if err := o.obs.Write(live.Tracer, logger.Printf); err != nil {
		return stats, nil, err
	}
	if err := o.obs.WriteMetrics(world.Metrics(), logger.Printf); err != nil {
		return stats, nil, err
	}
	return stats, live.Lens, corrupt
}

// serveDebug serves the run's /metrics, /telemetry, /policy and /healthz
// on addr and logs the address it bound. stop closes the listener and
// every connection, and waits for the server to return.
func serveDebug(addr string, world *mpi.World, live obsflag.Live, logger *log.Logger) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.PromHandler(world.Metrics()))
	mux.Handle("/telemetry", swaprt.TelemetryHandler(live.Hub))
	mux.Handle("/policy", policylens.Handler(live.Lens))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("debug endpoint: %v", err)
		}
	}()
	logger.Printf("debug endpoint on http://%s (/metrics /telemetry /policy /healthz)", ln.Addr())
	return func() {
		srv.Close()
		<-done
	}, nil
}

// busyWait spins for d of the injected clock's time: on a scaled clock
// the simulated compute compresses with everything else, keeping the
// work-to-timeout ratios of an accelerated run faithful to real time.
func busyWait(clk clock.Clock, d time.Duration) {
	end := clk.Now().Add(d)
	x := 1.0
	for clk.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-12
		}
	}
	_ = x
}
