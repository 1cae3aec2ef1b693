// Command swapmgr runs a standalone swap-manager daemon: the "possibly
// remote process responsible for collecting information and making
// swapping decisions" of the paper's runtime architecture. Applications
// using the swaprt runtime point a *swaprt.RemoteDecider at its address;
// a connection carries any number of request frames, each answered by
// one response frame, and stays open between them.
//
// With -debug-addr it also serves an HTTP endpoint exposing
// net/http/pprof profiles, /metrics in Prometheus text format (including
// the manager's decision counters, swapmgr.*), /telemetry with the
// fleet-wide telemetry aggregated from the rank snapshots piggybacked on
// handler reports, and /healthz; with -lens also /policy, the audit of
// this manager's own decisions.
//
// With -store the manager becomes crash-safe: every durable transition
// (epoch proposals and commits, spare assignments, quarantines) is
// fsynced to a WAL in the store directory before the decision is acked,
// a leader lease in the same directory fences out stale incarnations,
// and a restarted manager replays snapshot+WAL instead of starting from
// amnesia. A second swapmgr pointed at the same -store directory runs as
// a standby: it waits for the lease and takes over when the leader dies.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, the
// store is compacted and the lease released, and the process exits 0.
// Losing the lease (another incarnation fenced this one out) or any
// other serve failure exits non-zero. The durable lifecycle is
// swaprt.StartIncarnation, the one the in-process supervisor runs.
//
// Example:
//
//	swapmgr -addr 127.0.0.1:7070 -policy safe -store /var/lib/swapmgr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

// meteredDecider is swapmgr's layer of the decision pipeline: it wraps
// the local decider with registry counters so the debug endpoint can
// report live decision activity, and with the telemetry hub that
// aggregates the fleet view. Decide observes the decision stream
// (verdicts, payback distances, latency), Report absorbs the per-rank
// telemetry snapshots piggybacked on handler reports; each then goes on
// to Next, and ReportOutcome and Ping are Forward's.
type meteredDecider struct {
	swaprt.Forward
	hub       *swaprt.TelemetryHub // nil-safe
	decisions *obs.Counter
	swaps     *obs.Counter
	reports   *obs.Counter
	decideNS  *obs.Counter
}

func newMeteredDecider(next swaprt.Decider, hub *swaprt.TelemetryHub, reg *obs.Registry) *meteredDecider {
	return &meteredDecider{
		Forward:   swaprt.Forward{Next: next},
		hub:       hub,
		decisions: reg.Counter("swapmgr.decisions"),
		swaps:     reg.Counter("swapmgr.swaps"),
		reports:   reg.Counter("swapmgr.reports"),
		decideNS:  reg.Counter("swapmgr.decide_ns"),
	}
}

// Decide implements swaprt.Decider.
func (d *meteredDecider) Decide(req swaprt.DecideRequest) (swaprt.DecideResponse, error) {
	start := time.Now()
	resp, err := d.Next.Decide(req)
	dur := time.Since(start)
	d.decideNS.Add(uint64(dur))
	d.decisions.Inc()
	if err == nil {
		d.swaps.Add(uint64(len(resp.Swaps)))
		d.hub.ObserveDecision(req.Now, resp.Eval, len(resp.Swaps), dur.Seconds())
		d.hub.ObserveEpoch(req.Epoch, req.ActiveSet)
	}
	return resp, err
}

// Report implements swaprt.Decider.
func (d *meteredDecider) Report(r swaprt.ReportMsg) error {
	d.reports.Inc()
	// Absorb only: the piggybacked snapshot already carries the probe
	// rate, and a locally observed probe series would take precedence
	// over the (richer) absorbed snapshot in the hub's report.
	d.hub.Absorb(r.Telemetry)
	return d.Next.Report(r)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "swapmgr:", err)
		os.Exit(1)
	}
}

// run parses args and serves the manager they describe, logging on
// stderr, until ctx ends (nil: a clean shutdown) or serving fails. A
// standby whose ctx ends before it leads shuts down cleanly too.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("swapmgr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:7070", "listen address")
		policy    = fs.String("policy", "greedy", "swap policy: greedy, safe or friendly")
		quiet     = fs.Bool("quiet", false, "suppress per-decision logging")
		debugAddr = fs.String("debug-addr", "", "opt-in HTTP debug endpoint serving /metrics, /telemetry and pprof (e.g. 127.0.0.1:7071)")
		storeDir  = fs.String("store", "", "durable manager store directory: WAL-backed decisions, leader lease, crash recovery")
		leaseTTL  = fs.Duration("lease-ttl", 2*time.Second, "leader lease duration when -store is set; standbys take over after it expires")
		lensOn    = fs.Bool("lens", false, "arm the policy lens on the debug endpoint: payback audit + shadow-policy scoreboard at /policy (needs -debug-addr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pol, err := core.Named(*policy)
	if err != nil {
		return err
	}
	logger := log.New(stderr, "swapmgr: ", log.LstdFlags)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	// The end of ctx closes the listener, and that ends ServeManager.
	defer context.AfterFunc(ctx, func() { ln.Close() })()

	local := swaprt.NewLocalDecider(pol)
	var decider swaprt.Decider = local
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		hub := swaprt.NewTelemetryHub(nil)
		if *lensOn {
			local.Lens = policylens.New(policylens.Config{Registry: reg})
			hub.SetLensProbe(local.Lens.Report)
			logger.Printf("policy lens armed (shadow greedy/safe/friendly)")
		}
		decider = newMeteredDecider(decider, hub, reg)
		mux := http.NewServeMux()
		// pprof's /debug/pprof/* handlers live on DefaultServeMux, put
		// there by the package's init side effect.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/metrics", obs.PromHandler(reg))
		mux.Handle("/telemetry", swaprt.TelemetryHandler(hub))
		mux.Handle("/policy", policylens.Handler(local.Lens))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: mux}
		defer srv.Close()
		go func() {
			if err := srv.Serve(dln); !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug endpoint: %v", err)
			}
		}()
		logger.Printf("debug endpoint on http://%s (/debug/pprof /metrics /telemetry /policy /healthz)", dln.Addr())
	}

	logf := logger.Printf
	if *quiet {
		logf = nil
	}

	// Durable mode: one incarnation over the store directory, the same
	// lifecycle the in-process supervisor runs. A second daemon on the
	// same directory waits here as a standby until the lease frees up.
	var inc *swaprt.Incarnation
	if *storeDir != "" {
		owner := fmt.Sprintf("swapmgr-%d@%s", os.Getpid(), ln.Addr())
		inc, err = swaprt.StartIncarnation(*storeDir, owner, *leaseTTL, nil, ln, decider, func() bool {
			logger.Printf("standby: lease held elsewhere, retrying every %s", *leaseTTL/4)
			return ctx.Err() == nil
		}, logf)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		logger.Printf("durable store %s: replayed %d WAL records, epoch %d",
			*storeDir, inc.Durable.Replayed(), inc.Durable.DurableState().Epoch)
		decider = inc.Durable
	}

	logger.Printf("serving policy %s on %s", pol, ln.Addr())
	err = swaprt.ServeManager(ln, decider, logf)
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	if inc != nil {
		err = errors.Join(err, inc.Close())
	}
	if err != nil {
		return err
	}
	logger.Printf("clean shutdown")
	return nil
}
