// Command swaprun drives a synthetic iterative application on the live
// swapping runtime (internal/swaprt over internal/mpi): a world of ranks
// in this process, each on a live host that is the simulator's
// platform.Host under a loadgen model (-inject is a replay), and either
// an in-process swap manager or a remote swapmgr daemon. It is the one
// end-to-end harness for the runtime half of the reproduction: a single
// run, or with -scenarios a sweep of varied ones. Its smoke scenarios
// (go test ./cmd/swaprun -run Smoke) call run in-process. A run is on
// virtual time — the clock moves only when every rank waits, so its
// trace is a function of the scenario — unless a peer runs on wall time
// (-tcp, -manager, -mgr-store or a manager-killing -chaos, -debug-addr);
// only then does -accel apply.
//
// Examples:
//
//	swaprun -ranks 4 -active 2 -iters 30 -tcp
//	swaprun -ranks 6 -active 3 -policy safe -inject 0@0.5:4,2@1:6
//	swaprun -scenarios 200 -accel 50 -chaos 'seed=7;mgrrestart:after=4,downms=100'
//	swapmgr -addr 127.0.0.1:7070 &  swaprun -manager 127.0.0.1:7070
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/obs"
	"repro/internal/obs/obsflag"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "swaprun:", err)
		os.Exit(1)
	}
}

// options is one parsed command line.
type options struct {
	ranks, active, iters, state, scenarios int
	work, accel                            float64
	policy                                 core.Policy
	injections                             []injection
	load                                   loadgen.Model // a test's host load in place of -inject
	manager, chaos, debugAddr, mgrStore    string
	handler, transfer, mgrTTL              time.Duration
	tcp                                    bool
	wall                                   bool // a peer runs on wall time: the run is on clock.NewScaled(accel)
	obs                                    *obsflag.Flags
}

// run parses args, runs the scenarios they ask for and reports them on
// stdout, logging on stderr. Everything a scenario starts — world,
// manager, debug listener — has stopped by the time it returns, so one
// process can call it many times.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parse(args, stderr)
	if err != nil {
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

// parse reads a command line into options and checks them; the usage
// and flag errors go to stderr.
func parse(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("swaprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.ranks, "ranks", 4, "world size (actives + spares)")
	fs.IntVar(&o.active, "active", 2, "active processes")
	fs.IntVar(&o.iters, "iters", 40, "iterations")
	fs.Float64Var(&o.work, "work", 20, "milliseconds an iteration takes on an unloaded host; a host with n competing processes takes 1+n times as long")
	fs.IntVar(&o.state, "state", 4096, "extra registered state bytes per process (seeded, none zero, so a swap ships them all)")
	policy := fs.String("policy", "greedy", "swap policy: greedy, safe or friendly")
	fs.StringVar(&o.manager, "manager", "", "remote swapmgr address (overrides -policy decisions locally)")
	inject := fs.String("inject", "1@0.3:8", "load replay: rank@seconds:factor[,...] puts factor-1 competing processes on rank's host from that second of the run on; factor is a whole number; empty for none")
	fs.DurationVar(&o.handler, "handler", 0, "swap-handler probe interval (0 = probe at swap points only)")
	fs.BoolVar(&o.tcp, "tcp", false, "use the TCP transport between ranks instead of in-process")
	fs.StringVar(&o.chaos, "chaos", "", "fault plan, e.g. 'seed=7;die:rank=2,iter=3;mgrdown:after=2,count=6' (see internal/mpi/fault); empty for none")
	fs.DurationVar(&o.transfer, "transfer-timeout", 0, "per-leg state-transfer deadline before a swap aborts (0 = runtime default)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "HTTP debug endpoint serving /metrics (Prometheus), /telemetry (JSON), /policy and /healthz (e.g. 127.0.0.1:7081; port 0 picks one and logs it)")
	fs.Float64Var(&o.accel, "accel", 1, "time acceleration of a run with a peer on wall time (-tcp, -manager, -mgr-store, a manager-killing -chaos, -debug-addr): its whole schedule runs this many times faster than wall time; any other run is on virtual time")
	fs.StringVar(&o.mgrStore, "mgr-store", "", "durable manager store directory: runs a crash-restartable in-process swapmgr (WAL + leader lease) instead of plain local decisions; a temporary one is made for mgrkill/mgrrestart chaos")
	fs.DurationVar(&o.mgrTTL, "mgr-lease-ttl", 2*time.Second, "manager leader-lease duration (virtual time); a restarted manager waits out the dead leader's lease")
	fs.IntVar(&o.scenarios, "scenarios", 1, "run this many scenarios on fresh worlds and hosts, rotating which active rank each injection loads and when, and print their totals")
	o.obs = obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q: every setting is a flag", fs.Arg(0))
	}
	return o, o.check(*policy, *inject)
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
	plan, err := fault.Parse(o.chaos)
	if err != nil {
		return err
	}
	o.wall = o.tcp || o.manager != "" || o.mgrStore != "" || plan.HasManagerKills() || o.debugAddr != ""
	if !o.wall && o.accel != 1 {
		return fmt.Errorf("-accel %g: an in-process run is on virtual time; -accel needs -tcp, -manager, -mgr-store, a manager-killing -chaos or -debug-addr", o.accel)
	}
	if o.obs.Telemetry && o.handler == 0 {
		o.handler = 250 * time.Millisecond // telemetry rides on the handlers' reports
	}
	o.injections, err = parseInjections(inject, o.ranks)
	return err
}

// injection is one load change point: from Delay on, the host of Rank
// runs Factor times slower than unloaded, Factor−1 competing processes.
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
		case factor != math.Trunc(factor):
			return nil, fmt.Errorf("-inject %q: factor must be whole: a host with factor f has f-1 competing processes", part)
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

const hostSpeed = 1000 // flop/s: what a live host's probe reads unloaded

// hostLoad is scenario i's load model: o.load when set, else rotate(i)
// as a replay per host. A host's level is 0 until its first
// injection's onset and Factor−1 from each onset until the next.
func (o *options) hostLoad(i int) loadgen.Model {
	if o.load != nil {
		return o.load
	}
	in := o.rotate(i)
	sort.SliceStable(in, func(a, b int) bool { return in[a].Delay < in[b].Delay })
	set := loadgen.TraceSet{Traces: make([]loadgen.Replay, o.ranks)}
	since := make([]float64, o.ranks) // each host's last change point
	for _, c := range in {
		tr, at := &set.Traces[c.Rank], c.Delay.Seconds()
		tr.Segments = append(tr.Segments, loadgen.Segment{Dur: at - since[c.Rank], N: tr.Tail})
		tr.Tail, since[c.Rank] = int(c.Factor)-1, at
	}
	return set
}

// hosts are a scenario's live hosts, read at now on its clock. Ranks
// compute and probe at once, and a Host is not safe for that: mu is.
type hosts struct {
	mu  sync.Mutex
	all []*platform.Host
	now func() float64
}

// at reports the rate of rank's host now, hostSpeed/(1+level), and how
// long flops started now take on it, a level change midway included.
func (h *hosts) at(rank int, flops float64) (rate float64, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	host, t := h.all[rank], h.now()
	return host.RateAt(t), time.Duration(math.Round(host.ComputeDuration(t, flops) * float64(time.Second)))
}

// fill writes key's pad (a lane's, or ranks+world rank for a spare's)
// and returns it: seeded bytes, none zero, so a swap ships every one.
func fill(pad []byte, key int) []byte {
	rand.NewChaCha8([32]byte{byte(key), byte(key >> 8), byte(key >> 16)}).Read(pad) // never fails
	for i, b := range pad {
		pad[i] = max(b, 1)
	}
	return pad
}

// sweep runs -scenarios scenarios back to back and prints their totals.
// A failed scenario is logged and counted; any failure fails the sweep.
func (o *options) sweep(stdout io.Writer, logger *log.Logger) error {
	start := time.Now()
	var ok, failed, swaps, aborts, quarantined, decisions, realized, mispredicts, shadow, divergences int
	for i := 0; i < o.scenarios; i++ {
		stats, lens, err := o.scenario(i, log.New(io.Discard, "", 0))
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

// scenario is one live run: a fresh world and hostLoad(i)'s hosts on its
// own clock, its observability, the decision stack and the application
// loop, checked at the end against each lane's exact state.
func (o *options) scenario(i int, logger *log.Logger) (swaprt.RunStats, *policylens.Lens, error) {
	// One clock from the scenario's start, handed to the world, drives
	// all that waits or stamps: compute, host load, timeouts, backoffs,
	// handler ticks, trace and telemetry times: virtual, or -accel times
	// wall time when a peer runs on the wall (o.wall).
	var tm clock.Clock = clock.NewFakeAuto()
	if o.wall {
		tm = clock.NewScaled(o.accel)
	}
	env := platform.NewEnvironment(platform.Config{NumHosts: o.ranks, SpeedMin: hostSpeed,
		SpeedMax: hostSpeed, LoadModel: o.hostLoad(i)}, rng.NewSource(int64(i)))
	hs := &hosts{all: env.Hosts(), now: clock.Seconds(tm)}

	var plan *fault.Plan
	worldCfg := mpi.Config{Size: o.ranks, TCP: o.tcp, Clock: tm, Causal: o.obs.Causal}
	if o.chaos != "" {
		plan, _ = fault.Parse(o.chaos) // check parsed it: each scenario's plan is fresh
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
	cfg := swaprt.Config{
		Active:          o.active,
		Policy:          o.policy,
		Probe:           func(r int) float64 { rate, _ := hs.at(r, 0); return rate },
		HandlerInterval: o.handler,
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

	corrupt := make([]error, o.ranks) // each rank's oracle verdict
	want := float64(o.iters * o.active)
	stats, err := swaprt.RunWithStats(world, cfg, func(s *swaprt.Session) error {
		iter, acc := 0, 0.0
		pad := fill(make([]byte, o.state), o.ranks+s.Rank()) // a spare's own pattern
		if s.Active() {
			fill(pad, s.Comm().Rank())
		}
		s.Register("iter", &iter)
		s.Register("acc", &acc)
		s.Register("pad", &pad)
		for !s.Done() && iter < o.iters {
			if s.Active() {
				_, d := hs.at(s.Rank(), o.work/1000*hostSpeed)
				tm.Sleep(d)
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
		// exactly the fault-free accumulator and its own pad — a swap that
		// lost, cut or double-applied state, or a manager crash that
		// resurrected a stale one, shows up here.
		switch {
		case !s.Active():
		case acc != want:
			corrupt[s.Rank()] = fmt.Errorf("rank %d: corrupt accumulator %g, want %g", s.Rank(), acc, want)
		case !bytes.Equal(pad, fill(make([]byte, o.state), s.Comm().Rank())):
			corrupt[s.Rank()] = fmt.Errorf("rank %d: lane %d's pad arrived altered", s.Rank(), s.Comm().Rank())
		case s.Comm().Rank() == 0:
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
	return stats, live.Lens, errors.Join(corrupt...)
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
