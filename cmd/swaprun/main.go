// Command swaprun drives a synthetic iterative application on the live
// swapping runtime (internal/swaprt over internal/mpi): a world of ranks
// in this process, an injectable load schedule that slows chosen "hosts"
// mid-run, and either an in-process swap manager or a remote swapmgr
// daemon. It is the end-to-end harness for the runtime half of the
// reproduction.
//
// Examples:
//
//	swaprun -ranks 4 -active 2 -iters 40 -inject 1@0.3:8
//	swaprun -ranks 6 -active 3 -policy safe -inject 0@0.5:4,2@1:6
//	swapmgr -addr 127.0.0.1:7070 &  swaprun -manager 127.0.0.1:7070
package main

import (
	"flag"
	"fmt"
	"log"
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

// injection is one scheduled load event: after Delay, the host of Rank
// runs Factor times slower.
type injection struct {
	Rank   int
	Delay  time.Duration
	Factor float64
}

func parseInjections(spec string) ([]injection, error) {
	if spec == "" {
		return nil, nil
	}
	var out []injection
	for _, part := range strings.Split(spec, ",") {
		var rank int
		var secs, factor float64
		at := strings.Split(part, "@")
		if len(at) != 2 {
			return nil, fmt.Errorf("injection %q: want rank@seconds:factor", part)
		}
		colon := strings.Split(at[1], ":")
		if len(colon) != 2 {
			return nil, fmt.Errorf("injection %q: want rank@seconds:factor", part)
		}
		var err error
		if rank, err = strconv.Atoi(at[0]); err != nil {
			return nil, fmt.Errorf("injection %q: %v", part, err)
		}
		if secs, err = strconv.ParseFloat(colon[0], 64); err != nil {
			return nil, fmt.Errorf("injection %q: %v", part, err)
		}
		if factor, err = strconv.ParseFloat(colon[1], 64); err != nil {
			return nil, fmt.Errorf("injection %q: %v", part, err)
		}
		if factor < 1 {
			return nil, fmt.Errorf("injection %q: factor must be >= 1", part)
		}
		out = append(out, injection{Rank: rank, Delay: time.Duration(secs * float64(time.Second)), Factor: factor})
	}
	return out, nil
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

func main() {
	var (
		ranks    = flag.Int("ranks", 4, "world size (actives + spares)")
		active   = flag.Int("active", 2, "active processes")
		iters    = flag.Int("iters", 40, "iterations")
		workMS   = flag.Float64("work", 20, "unloaded compute milliseconds per iteration per rank")
		state    = flag.Int("state", 4096, "extra registered state bytes per process")
		policy   = flag.String("policy", "greedy", "swap policy: greedy, safe or friendly")
		manager  = flag.String("manager", "", "remote swapmgr address (overrides -policy decisions locally)")
		inject   = flag.String("inject", "1@0.3:8", "load schedule: rank@seconds:factor[,...]; empty for none")
		handler  = flag.Duration("handler", 0, "swap-handler probe interval (0 = probe at swap points only)")
		tcpWorld = flag.Bool("tcp", false, "use the TCP transport between ranks instead of in-process")
		chaos    = flag.String("chaos", "", "fault plan, e.g. 'seed=7;die:rank=2,iter=3;mgrdown:after=2,count=6' (see internal/mpi/fault); empty for none")
		transfer = flag.Duration("transfer-timeout", 0, "per-leg state-transfer deadline before a swap aborts (0 = runtime default)")
		debug    = flag.String("debug-addr", "", "HTTP debug endpoint serving /metrics (Prometheus), /telemetry (JSON) and /healthz (e.g. 127.0.0.1:7081)")
		accel    = flag.Float64("accel", 1, "time acceleration: run the whole schedule (work, injections, backoffs, timeouts) on a virtual clock this many times faster than wall time")
		mgrStore = flag.String("mgr-store", "", "durable manager store directory: runs a crash-restartable in-process swapmgr (WAL + leader lease) instead of plain local decisions; required home for mgrkill/mgrrestart chaos")
		mgrTTL   = flag.Duration("mgr-lease-ttl", 2*time.Second, "manager leader-lease duration (virtual time); a restarted manager waits out the dead leader's lease")
	)
	traceFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	pol, err := core.Named(*policy)
	if err != nil {
		fatal(err)
	}
	if *accel <= 0 {
		fatal(fmt.Errorf("-accel must be positive, got %g", *accel))
	}
	// One clock, handed to the world, drives everything that waits or
	// stamps: work spinning, load injections, swap timeouts, retry
	// backoffs, handler tickers, trace and telemetry timestamps. At
	// -accel 1 it is the wall clock.
	var tm clock.Clock = clock.Real{}
	if *accel != 1 {
		tm = clock.NewScaled(*accel)
		log.Printf("accel: virtual time runs %gx wall time", *accel)
	}
	injections, err := parseInjections(*inject)
	if err != nil {
		fatal(err)
	}
	for _, i := range injections {
		if i.Rank < 0 || i.Rank >= *ranks {
			fatal(fmt.Errorf("injection rank %d out of world [0,%d)", i.Rank, *ranks))
		}
	}

	inj := &injector{factor: make([]float64, *ranks)}
	for i := range inj.factor {
		inj.factor[i] = 1
	}
	for _, i := range injections {
		i := i
		go func() {
			tm.Sleep(i.Delay)
			log.Printf("inject: host of rank %d now %gx slower", i.Rank, i.Factor)
			inj.apply(i)
		}()
	}

	var plan *fault.Plan
	if *chaos != "" {
		if plan, err = fault.Parse(*chaos); err != nil {
			fatal(err)
		}
		log.Printf("chaos: fault plan armed: %s", *chaos)
	}

	worldCfg := mpi.Config{Size: *ranks, TCP: *tcpWorld, Clock: tm, Causal: traceFlags.Causal}
	if plan != nil {
		// Only a non-nil plan goes into the interface field: a typed nil
		// would arm an injector that panics on first use.
		worldCfg.Fault = plan
	}
	world, err := mpi.NewWorldWithConfig(worldCfg)
	if err != nil {
		fatal(err)
	}

	// The tracer, flight recorder, telemetry hub and lens all read the
	// world's clock, as the runtime does: one timeline at any -accel.
	live, err := traceFlags.Live(world)
	if err != nil {
		fatal(err)
	}
	tracer, hub, lens := live.Tracer, live.Hub, live.Lens
	// Telemetry rides on the swap handlers' periodic reports; give them
	// the telemetry cadence unless the user picked their own.
	if hub != nil && *handler == 0 {
		*handler = traceFlags.TelemetryInterval
	}
	if world.Causal() != nil {
		log.Printf("causal: Lamport clocks armed on %d ranks", *ranks)
	}
	if traceFlags.Recorder != nil {
		log.Printf("flight: recorder armed, dumps go to %s", traceFlags.FlightDir)
	}
	if lens != nil {
		log.Printf("lens: policy audit armed (shadow greedy/safe/friendly)")
	}

	cfg := swaprt.Config{
		Active:          *active,
		Policy:          pol,
		Probe:           inj.probe,
		HandlerInterval: *handler,
		TransferTimeout: *transfer,
		Tracer:          tracer,
		Telemetry:       hub,
		Lens:            lens,
	}
	// A fault plan with mgrkill/mgrrestart rules needs a manager that can
	// actually die and recover; give it a durable store home if the user
	// did not name one.
	storeDir := *mgrStore
	if storeDir == "" && plan != nil && plan.HasManagerKills() {
		if storeDir, err = os.MkdirTemp("", "swapmgr-store-*"); err != nil {
			fatal(err)
		}
		defer os.RemoveAll(storeDir)
		log.Printf("mgr-store: chaos plan kills the manager; using temporary store %s", storeDir)
	}

	var primary swaprt.Decider
	var sup *swaprt.ManagerSupervisor
	if storeDir != "" {
		// Crash-restartable manager: a supervisor runs WAL-backed swapmgr
		// incarnations over the store directory, fenced by a leader lease
		// on the virtual clock. The fault plan's kill rules crash it for
		// real; the decision stack re-finds the recovered leader.
		sup, err = swaprt.StartManagerSupervisor(swaprt.SupervisorConfig{
			Dir: storeDir, Policy: pol, LeaseTTL: *mgrTTL,
			Clock: tm, Tracer: tracer, Logf: log.Printf,
		})
		if err != nil {
			fatal(err)
		}
		defer sup.Close()
		log.Printf("mgr-store: durable swapmgr on %s (store %s, lease %s)", sup.Addr(), storeDir, *mgrTTL)
		if plan != nil {
			plan.SetManagerKiller(sup.Kill)
		}
	} else if *manager != "" {
		primary = &swaprt.RemoteDecider{Addr: *manager}
		log.Printf("using remote swap manager at %s", *manager)
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
		hub.SetCircuitProbe(resilient.State)
	}

	if *debug != "" {
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.PromHandler(world.Metrics()))
		mux.Handle("/telemetry", swaprt.TelemetryHandler(hub))
		mux.Handle("/policy", policylens.Handler(lens))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		go func() {
			if err := http.Serve(dln, mux); err != nil {
				log.Printf("debug endpoint: %v", err)
			}
		}()
		log.Printf("debug endpoint on http://%s (/metrics /telemetry /policy /healthz)", dln.Addr())
	}

	start := time.Now()
	var mu sync.Mutex
	totalSwaps := 0
	corrupt := false
	stats, err := swaprt.RunWithStats(world, cfg, func(s *swaprt.Session) error {
		iter := 0
		acc := 0.0
		pad := make([]byte, *state)
		s.Register("iter", &iter)
		s.Register("acc", &acc)
		s.Register("pad", &pad)
		for !s.Done() && iter < *iters {
			if s.Active() {
				busyWait(tm, time.Duration(*workMS*inj.slowdown(s.Rank()))*time.Millisecond)
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
		mu.Lock()
		totalSwaps += s.Swaps()
		mu.Unlock()
		if s.Active() && s.Comm().Rank() == 0 {
			want := float64(*iters * *active)
			status := "OK"
			if acc != want {
				status = fmt.Sprintf("CORRUPT (acc=%g want=%g)", acc, want)
				mu.Lock()
				corrupt = true
				mu.Unlock()
			}
			log.Printf("finished %d iterations on rank %d: %s", iter, s.Rank(), status)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("completed %d iterations on %d/%d ranks in %.2fs with %d swap participations\n",
		*iters, *active, *ranks, time.Since(start).Seconds(), totalSwaps)
	fmt.Printf("runtime stats: %s\n", stats)
	if err := traceFlags.Write(tracer, log.Printf); err != nil {
		fatal(err)
	}
	if err := traceFlags.WriteMetrics(world.Metrics(), log.Printf); err != nil {
		fatal(err)
	}
	if corrupt {
		fatal(fmt.Errorf("numerical result corrupted; see log"))
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swaprun:", err)
	os.Exit(1)
}
