package swaprt

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/obs"
	"repro/internal/swaprt/mgrstore"
)

// waitUntil polls cond on the wall clock; these tests wait on real
// goroutines (lease expiry, standby takeover), not simulated time.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSupervisorRestartRecoversState exercises the supervisor alone:
// kill the serving incarnation mid-epoch, restart it, and require the
// successor to replay the WAL, hold the same durable state, and serve at
// a fresh address that Resolve finds via the lease.
func TestSupervisorRestartRecoversState(t *testing.T) {
	const ttl = 30 * time.Millisecond
	dir := t.TempDir()
	tr := obs.New(0)
	tr.Enable()
	// The lease runs on a fake clock: it expires when the test advances
	// it, never because a loaded host was slow to resolve.
	fk := clock.NewFake()
	sup, err := StartManagerSupervisor(SupervisorConfig{
		Dir: dir, Policy: core.Greedy(), LeaseTTL: ttl, Clock: fk,
		Timeout: time.Second, Tracer: tr, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	addr1 := sup.Addr()
	if addr1 == "" {
		t.Fatal("StartManagerSupervisor returned before its first incarnation was serving")
	}

	// Drive one swap-bearing decision plus a quarantining outcome through
	// the wire, so the WAL has real state to recover.
	rd, err := sup.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rd.Decide(decideReq(0, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Swaps) == 0 {
		t.Fatal("expected a swap from greedy policy with fast spares")
	}
	if err := rd.ReportOutcome(OutcomeMsg{Epoch: 1, Committed: false, Quarantined: []int{resp.Swaps[0].In}}); err != nil {
		t.Fatal(err)
	}

	sup.Kill(true, 5*time.Millisecond)
	// One step ends the downtime and expires the dead leader's lease, so
	// the successor takes it over on its first try.
	fk.Advance(ttl)
	waitUntil(t, "restarted incarnation", func() bool { return sup.Recoveries() >= 2 && sup.Addr() != "" })
	if got := sup.Addr(); got == addr1 {
		t.Errorf("successor serves on the crashed incarnation's address %s", got)
	}

	// The successor must refuse the quarantined spare durably.
	rd2, err := sup.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	quar := resp.Swaps[0].In
	resp2, err := rd2.Decide(decideReq(0, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range resp2.Swaps {
		if sw.In == quar {
			t.Errorf("recovered manager re-assigned durably quarantined spare %d", quar)
		}
	}

	var crash bool
	var recoverDetails []string
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindMgrCrash:
			crash = true
		case obs.KindMgrRecover:
			recoverDetails = append(recoverDetails, ev.Detail)
		}
	}
	if !crash || len(recoverDetails) < 2 {
		t.Fatalf("trace: crash=%v recoveries=%d, want a crash and both recover events", crash, len(recoverDetails))
	}
	last := recoverDetails[len(recoverDetails)-1]
	if !strings.Contains(last, "wal-replay") || !strings.Contains(last, "records=") {
		t.Errorf("recover detail %q lacks wal-replay evidence", last)
	}
	if strings.Contains(last, "records=0 ") {
		t.Errorf("recover detail %q replayed nothing; crash left no WAL?", last)
	}
}

// TestSupervisorFailoverMatchesFaultFree is the headline robustness
// scenario for this subsystem: a live multi-rank run whose swap manager
// is killed and restarted mid-run by the fault plan. The circuit breaker
// must open, the resolver must re-find the recovered leader through the
// lease, and the run must finish with exactly the fault-free result —
// no corrupt accumulator, no double-applied swap, no lost quarantine.
func TestSupervisorFailoverMatchesFaultFree(t *testing.T) {
	const iters = 40
	want := 0.0
	for i := 0; i < iters; i++ {
		want += float64(i)
	}

	dir := t.TempDir()
	plan := fault.MustParse("seed=7;mgrrestart:after=3,downms=10")
	tr := obs.New(0)
	tr.Enable()
	sup, err := StartManagerSupervisor(SupervisorConfig{
		Dir: dir, Policy: core.Greedy(), LeaseTTL: 40 * time.Millisecond,
		Timeout: time.Second, Tracer: tr, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan.SetManagerKiller(sup.Kill)

	w, err := mpi.NewWorldWithConfig(mpi.Config{Size: 4, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	rt := &rateTable{rates: []float64{100, 100, 5000, 2000}}
	cfg := Config{
		Active:          2,
		Policy:          core.Greedy(),
		Probe:           rt.probe,
		TransferTimeout: 500 * time.Millisecond,
		Tracer:          tr,
	}
	// The stack swaprun builds over a supervised manager: an open circuit
	// re-resolves the leader from the lease, behind the plan's gate.
	decider := NewDecisionStack(w, cfg, nil, sup, plan.ManagerCall)
	defer decider.Close()
	cfg.Decider = decider
	var out sync.Map
	stats, err := RunWithStats(w, cfg, chaosBody(iters, plan, 2*time.Millisecond, &out))
	if err != nil {
		t.Fatalf("run failed instead of surviving the manager restart: %v", err)
	}

	lanes := 0
	out.Range(func(rank, acc any) bool {
		lanes++
		if acc.(float64) != want {
			t.Errorf("rank %v finished with acc %v, want %g", rank, acc, want)
		}
		return true
	})
	if lanes != 2 {
		t.Errorf("%d final active lanes, want 2", lanes)
	}
	if stats.Swaps < 1 {
		t.Errorf("Swaps = %d, want >= 1", stats.Swaps)
	}

	// The restarted incarnation may win the lease after the (short) run
	// finishes; recovery itself must still complete.
	waitUntil(t, "failover recovery", func() bool { return sup.Recoveries() >= 2 })

	crashT, recoverT := -1.0, -1.0
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindMgrCrash:
			if crashT < 0 {
				crashT = ev.T
			}
		case obs.KindMgrRecover:
			if ev.T > crashT && crashT >= 0 && recoverT < 0 {
				recoverT = ev.T
				if !strings.Contains(ev.Detail, "wal-replay") {
					t.Errorf("recover detail %q lacks wal-replay evidence", ev.Detail)
				}
			}
		}
	}
	if crashT < 0 || recoverT < 0 {
		t.Fatalf("trace lacks crash (%g) / post-crash recover (%g) pair", crashT, recoverT)
	}

	// Epochs in the decision trace must never go backwards: a recovered
	// manager that forgot the committed epoch would re-issue old ones.
	var lastEpoch uint64
	for _, ev := range tr.Events() {
		if ev.Kind != obs.KindSwapDecision {
			continue
		}
		if ev.Epoch < lastEpoch {
			t.Errorf("decision epoch went backwards: %d after %d", ev.Epoch, lastEpoch)
		}
		lastEpoch = ev.Epoch
	}

	// Graceful close compacts and releases; the store must afterwards
	// show a clean, committed state with no lease held.
	if err := sup.Close(); err != nil {
		t.Fatalf("supervisor close: %v", err)
	}
	if _, held, err := mgrstore.ReadLease(dir, clock.Real{}); err != nil || held {
		t.Errorf("after close: lease held=%v err=%v, want released", held, err)
	}
	store, err := mgrstore.Open(dir, clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	st, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != nil {
		t.Errorf("durable state left a dangling proposal: %+v", st.Pending)
	}
}

// TestSupervisorCloseReleasesLeaseWithRenewalDue closes a supervised
// manager at the instant a TTL/3 renewal falls due, over and over: the
// renewal loop must be gone before the lease is released, or a renewal
// in flight writes a live lease over the released one and the next
// manager on the directory waits out a TTL nobody holds.
func TestSupervisorCloseReleasesLeaseWithRenewalDue(t *testing.T) {
	const (
		rounds = 200
		ttl    = 3 * time.Second
	)
	dir := t.TempDir()
	fk := clock.NewFake()
	for round := 0; round < rounds; round++ {
		// A still-held lease would park this bring-up on the frozen clock
		// for good; the check below fails the round before that.
		sup, err := StartManagerSupervisor(SupervisorConfig{
			Dir: dir, Policy: core.Greedy(), LeaseTTL: ttl, Clock: fk,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fk.BlockUntilWaiters(1) // the renewal ticker
		fk.Advance(ttl / 3)     // a renewal is due, and racing the close
		if err := sup.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		if lease, held, err := mgrstore.ReadLease(dir, fk); err != nil || held {
			t.Fatalf("round %d: after close: lease %+v held=%v err=%v, want released", round, lease, held, err)
		}
		if n := fk.WaiterCount(); n != 0 {
			t.Fatalf("round %d: %d clock waiters left after close: the renewal loop outlived it", round, n)
		}
	}
}
