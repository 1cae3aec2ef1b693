// Command swapmgr runs a standalone swap-manager daemon: the "possibly
// remote process responsible for collecting information and making
// swapping decisions" of the paper's runtime architecture. Applications
// using the swaprt runtime point a *swaprt.RemoteDecider at its address;
// a connection carries any number of JSON requests, each answered by one
// JSON response, and stays open between them.
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
// Losing the lease (another incarnation fenced us out) or any other
// serve failure exits non-zero.
//
// Example:
//
//	swapmgr -addr 127.0.0.1:7070 -policy safe -store /var/lib/swapmgr
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/swaprt"
	"repro/internal/swaprt/mgrstore"
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
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		policy    = flag.String("policy", "greedy", "swap policy: greedy, safe or friendly")
		quiet     = flag.Bool("quiet", false, "suppress per-decision logging")
		debugAddr = flag.String("debug-addr", "", "opt-in HTTP debug endpoint serving /metrics, /telemetry and pprof (e.g. 127.0.0.1:7071)")
		storeDir  = flag.String("store", "", "durable manager store directory: WAL-backed decisions, leader lease, crash recovery")
		leaseTTL  = flag.Duration("lease-ttl", 2*time.Second, "leader lease duration when -store is set; standbys take over after it expires")
		lensOn    = flag.Bool("lens", false, "arm the policy lens on the debug endpoint: payback audit + shadow-policy scoreboard at /policy (needs -debug-addr)")
	)
	flag.Parse()

	pol, err := core.Named(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swapmgr:", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swapmgr:", err)
		os.Exit(1)
	}

	local := swaprt.NewLocalDecider(pol)
	var decider swaprt.Decider = local
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		hub := swaprt.NewTelemetryHub(nil)
		if *lensOn {
			local.Lens = policylens.New(policylens.Config{Registry: reg})
			hub.SetLensProbe(local.Lens.Report)
			log.Printf("swapmgr: policy lens armed (shadow greedy/safe/friendly)")
		}
		decider = newMeteredDecider(decider, hub, reg)
		// DefaultServeMux carries pprof's /debug/pprof/* handlers via the
		// package's init side effect; the observability endpoints join
		// them.
		http.Handle("/metrics", obs.PromHandler(reg))
		http.Handle("/telemetry", swaprt.TelemetryHandler(hub))
		http.Handle("/policy", policylens.Handler(local.Lens))
		http.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swapmgr:", err)
			os.Exit(1)
		}
		go func() {
			if err := http.Serve(dln, nil); err != nil {
				log.Printf("swapmgr: debug endpoint: %v", err)
			}
		}()
		log.Printf("swapmgr: debug endpoint on http://%s (/debug/pprof /metrics /telemetry /policy /healthz)", dln.Addr())
	}

	logf := log.Printf
	if *quiet {
		logf = nil
	}

	// Durable mode: wrap the decision core so every transition hits the
	// WAL before the ack, and hold the leader lease for the listen
	// address. A second daemon on the same -store directory blocks here
	// as a standby until the lease frees up.
	var (
		store     *mgrstore.FileStore
		owner     string
		lostLease atomic.Bool
		stopRenew = make(chan struct{})
		renewed   = make(chan struct{}) // closed once the renewal loop has returned
	)
	if *storeDir != "" {
		store, err = mgrstore.Open(*storeDir, clock.Real{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "swapmgr:", err)
			os.Exit(1)
		}
		owner = fmt.Sprintf("swapmgr-%d", os.Getpid())
		err = store.AwaitLease(owner, ln.Addr().String(), *leaseTTL, func() bool {
			log.Printf("swapmgr: standby: lease held elsewhere, retrying every %s", *leaseTTL/4)
			return true
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "swapmgr:", err)
			os.Exit(1)
		}
		durable, err := swaprt.NewDurableDecider(decider, store, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swapmgr:", err)
			os.Exit(1)
		}
		log.Printf("swapmgr: durable store %s: replayed %d WAL records, epoch %d",
			*storeDir, durable.Replayed(), durable.DurableState().Epoch)
		decider = durable
		go func() {
			defer close(renewed)
			if err := store.KeepLease(owner, ln.Addr().String(), *leaseTTL, stopRenew); err != nil {
				log.Printf("swapmgr: lease lost (%v): fenced out, shutting down", err)
				lostLease.Store(true)
				ln.Close()
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("swapmgr: %s: shutting down", sig)
		ln.Close()
	}()

	log.Printf("swapmgr: serving policy %s on %s", pol, ln.Addr())
	serveErr := swaprt.ServeManager(ln, decider, logf)
	close(stopRenew)
	if serveErr != nil && !errors.Is(serveErr, net.ErrClosed) {
		log.Fatalf("swapmgr: %v", serveErr)
	}
	if lostLease.Load() {
		log.Fatalf("swapmgr: exited because the leader lease was lost")
	}
	if store != nil {
		// Clean handover: compact so the successor replays a snapshot, and
		// release the lease so it does not have to wait out the TTL — once
		// the renewal loop is gone, or a renewal in flight would take the
		// released lease right back.
		<-renewed
		if err := store.Compact(); err != nil {
			log.Fatalf("swapmgr: compact on shutdown: %v", err)
		}
		if err := store.ReleaseLease(owner); err != nil {
			log.Fatalf("swapmgr: release lease: %v", err)
		}
		if err := store.Close(); err != nil {
			log.Fatalf("swapmgr: close store: %v", err)
		}
	}
	log.Printf("swapmgr: clean shutdown")
}
