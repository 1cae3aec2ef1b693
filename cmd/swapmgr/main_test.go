package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/swaprt"
	"repro/internal/swaprt/mgrstore"
)

// recordingLeaf counts what reaches the bottom of a decision stack.
type recordingLeaf struct {
	mu    sync.Mutex
	calls map[string]int
}

func (l *recordingLeaf) hit(call string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls[call]++
}

func (l *recordingLeaf) Decide(swaprt.DecideRequest) (swaprt.DecideResponse, error) {
	l.hit("Decide")
	return swaprt.DecideResponse{}, nil
}
func (l *recordingLeaf) Report(swaprt.ReportMsg) error         { l.hit("Report"); return nil }
func (l *recordingLeaf) ReportOutcome(swaprt.OutcomeMsg) error { l.hit("ReportOutcome"); return nil }
func (l *recordingLeaf) Ping() error                           { l.hit("Ping"); return nil }

// TestEveryLayerForwardsEveryCallOnce wraps a recording leaf in each
// layer of the decision pipeline (DESIGN.md §13) and in the full
// composition a supervised swaprun talks through, and requires each of
// Decider's four calls to arrive exactly once. It lives here because
// only this package sees all the layers: meteredDecider is swapmgr's.
// A wrapper that forgets to forward a call — the bug PR 10 patched in
// DurableDecider — fails its row.
func TestEveryLayerForwardsEveryCallOnce(t *testing.T) {
	pass := func() error { return nil }
	durable := func(next swaprt.Decider) swaprt.Decider {
		d, err := swaprt.NewDurableDecider(next, mgrstore.NewMemStore(clock.Real{}), nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	metered := func(next swaprt.Decider) swaprt.Decider {
		return newMeteredDecider(next, nil, obs.NewRegistry())
	}
	served := func(next swaprt.Decider) swaprt.Decider {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() { _ = swaprt.ServeManager(ln, next, nil) }()
		return &swaprt.RemoteDecider{Addr: ln.Addr().String()}
	}
	gated := func(next swaprt.Decider) swaprt.Decider {
		return swaprt.GatedDecider{Forward: swaprt.Forward{Next: next}, Gate: pass}
	}
	// The resilient layer is the one every run assembles: the stack over
	// next, falling back to a local decider.
	world := mpi.NewWorld(1)
	t.Cleanup(world.Close)
	stack := func(next swaprt.Decider) *swaprt.ResilientDecider {
		d := swaprt.NewDecisionStack(world, swaprt.Config{}, next, nil, nil)
		t.Cleanup(d.Close)
		return d
	}
	resilient := func(next swaprt.Decider) swaprt.Decider { return stack(next) }
	for _, tc := range []struct {
		name string
		wrap func(leaf swaprt.Decider) swaprt.Decider
	}{
		{"Forward", func(l swaprt.Decider) swaprt.Decider { return swaprt.Forward{Next: l} }},
		{"Gated", gated},
		{"Resilient", resilient},
		{"Durable", durable},
		{"metered", metered},
		{"Remote=>ServeManager", served},
		{"Resilient->Gated->Remote=>ServeManager->Durable->metered", func(l swaprt.Decider) swaprt.Decider {
			return resilient(gated(served(durable(metered(l)))))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaf := &recordingLeaf{calls: map[string]int{}}
			callEach(t, tc.wrap(leaf))
			for _, call := range []string{"Decide", "Report", "ReportOutcome", "Ping"} {
				if got := leaf.calls[call]; got != 1 {
					t.Errorf("%s reached the leaf %d times, want exactly 1", call, got)
				}
			}
		})
	}
	// The resilient layer's second destination: while the primary
	// answers, the fallback decides nothing and is pinged for nothing,
	// but hears every measurement and every outcome — the decision an
	// outcome closes may have been a degraded-mode one, armed in the
	// fallback's lens.
	t.Run("Resilient fallback", func(t *testing.T) {
		fallback := &recordingLeaf{calls: map[string]int{}}
		d := stack(&recordingLeaf{calls: map[string]int{}})
		d.Fallback = fallback
		callEach(t, d)
		for call, want := range map[string]int{"Decide": 0, "Report": 1, "ReportOutcome": 1, "Ping": 0} {
			if got := fallback.calls[call]; got != want {
				t.Errorf("%s reached the fallback %d times, want %d", call, got, want)
			}
		}
	})
}

// callEach makes each of Decider's four calls once.
func callEach(t *testing.T, d swaprt.Decider) {
	t.Helper()
	if _, err := d.Decide(swaprt.DecideRequest{ActiveSet: []int{0}, ActiveRates: []float64{100},
		SpareSet: []int{1}, SpareRates: []float64{100}, IterTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Report(swaprt.ReportMsg{Rank: 0, Now: 1, Rate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := d.ReportOutcome(swaprt.OutcomeMsg{Epoch: 1, Committed: true, NewSet: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Ping(); err != nil {
		t.Fatal(err)
	}
}

// daemon is one run of swapmgr in this process.
type daemon struct {
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// startDaemon calls run with args until the test cancels it or ends.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.err = run(ctx, args, io.Discard)
	}()
	t.Cleanup(func() {
		cancel()
		<-d.done
	})
	return d
}

// wait returns what run returned.
func (d *daemon) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-d.done:
		return d.err
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return")
		return nil
	}
}

// awaitLease polls dir until a live lease names an owner other than
// prev, and returns it.
func awaitLease(t *testing.T, dir, prev string, within time.Duration) mgrstore.Lease {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		lease, held, err := mgrstore.ReadLease(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if held && lease.Owner != prev {
			return lease
		}
		if time.Now().After(deadline) {
			t.Fatalf("no lease other than %q within %s (now %+v, held %v)", prev, within, lease, held)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// swapRequest is a decision the greedy policy answers with one swap,
// host 3 out and host 12 in.
func swapRequest(epoch uint64) swaprt.DecideRequest {
	return swaprt.DecideRequest{Epoch: epoch, Now: 60,
		ActiveSet: []int{3, 5}, ActiveRates: []float64{120e6, 480e6},
		SpareSet: []int{12, 14}, SpareRates: []float64{700e6, 90e6},
		IterTime: 130, SwapTime: 0.17}
}

const leaseTTL = 250 * time.Millisecond

func durableArgs(dir string) []string {
	return []string{"-addr", "127.0.0.1:0", "-store", dir, "-lease-ttl", leaseTTL.String(), "-quiet"}
}

// TestDaemonStandbyTakesOver runs a leader and a standby on one -store
// directory. The leader decides a swap and hears its commit; cancelled,
// it hands the lease over cleanly, so the standby serves within one TTL
// and from the leader's durable epoch: a request from before the commit
// is refused as stale, one from after it is answered.
func TestDaemonStandbyTakesOver(t *testing.T) {
	dir := t.TempDir()
	leader := startDaemon(t, durableArgs(dir)...)
	lead := awaitLease(t, dir, "", 5*time.Second)
	startDaemon(t, durableArgs(dir)...)

	mgr := &swaprt.RemoteDecider{Addr: lead.Addr}
	resp, err := mgr.Decide(swapRequest(0))
	if err != nil || len(resp.Swaps) != 1 {
		t.Fatalf("leader decided %+v, %v; want one swap", resp, err)
	}
	if err := mgr.ReportOutcome(swaprt.OutcomeMsg{Epoch: 1, Committed: true, NewSet: []int{12, 5}}); err != nil {
		t.Fatal(err)
	}

	leader.cancel()
	if err := leader.wait(t); err != nil {
		t.Fatalf("cancelled leader: %v, want a clean shutdown", err)
	}
	stopped := time.Now()
	if lease, held, err := mgrstore.ReadLease(dir, nil); err != nil || held && lease.Owner == lead.Owner {
		t.Fatalf("after a clean shutdown the lease is %+v (held %v, %v), want it released", lease, held, err)
	}
	next := awaitLease(t, dir, lead.Owner, leaseTTL)
	if next.Addr == lead.Addr {
		t.Fatalf("lease %+v still names the leader's address", next)
	}
	standby := &swaprt.RemoteDecider{Addr: next.Addr}
	if _, err := standby.Decide(swapRequest(1)); err != nil {
		t.Fatalf("standby at epoch 1: %v", err)
	}
	if took := time.Since(stopped); took > leaseTTL {
		t.Errorf("standby answered %s after the leader stopped, want within one TTL (%s)", took, leaseTTL)
	}
	if _, err := standby.Decide(swapRequest(0)); err == nil || !strings.Contains(err.Error(), "stale epoch") {
		t.Errorf("standby answered a request from before the committed epoch: %v", err)
	}
}

// TestDaemonFencedOutFails: a leader whose lease another owner took
// stops serving and run reports it.
func TestDaemonFencedOutFails(t *testing.T) {
	dir := t.TempDir()
	leader := startDaemon(t, durableArgs(dir)...)
	rival := awaitLease(t, dir, "", 5*time.Second)
	rival.Owner, rival.Expires, rival.Seq = "rival", time.Now().Add(time.Hour), rival.Seq+1
	data, err := json.Marshal(rival)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgrstore.WriteFileDurable(filepath.Join(dir, "lease.json"), data); err != nil {
		t.Fatal(err)
	}
	if err := leader.wait(t); err == nil || !strings.Contains(err.Error(), "fenced out") {
		t.Fatalf("fenced leader: run = %v, want a fenced-out error", err)
	}
}

// TestDaemonDebugEndpoint runs a manager without a store but with the
// debug endpoint and the lens: a decision it serves shows up in
// /metrics, and /policy, /healthz and pprof answer beside it.
func TestDaemonDebugEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	logr, logw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-lens", "-quiet"}, logw)
		logw.Close()
	}()
	// The two addresses, read off the log: the debug endpoint's, then the
	// manager's, the last field of its "serving policy" line.
	addrs := make(chan string, 2)
	go func() {
		sc := bufio.NewScanner(logr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "debug endpoint on "); ok {
				addrs <- strings.Fields(rest)[0]
			} else if strings.Contains(sc.Text(), "serving policy ") {
				fields := strings.Fields(sc.Text())
				addrs <- fields[len(fields)-1]
			}
		}
	}()
	var debug, serving string
	for _, addr := range []*string{&debug, &serving} {
		select {
		case *addr = <-addrs:
		case err := <-done:
			t.Fatalf("run: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("the manager never logged its addresses")
		}
	}

	if _, err := (&swaprt.RemoteDecider{Addr: serving}).Decide(swapRequest(0)); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/metrics": "swapmgr_swaps 1", "/policy": "", "/healthz": "ok", "/debug/pprof/": "goroutine"} {
		resp, err := http.Get(debug + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: %s %q (%v), want 200 containing %q", path, resp.Status, body, err, want)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled manager: %v, want a clean shutdown", err)
	}
}
