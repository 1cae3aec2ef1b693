package swaprt

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/swaprt/mgrstore"
)

// SupervisorConfig configures a ManagerSupervisor.
type SupervisorConfig struct {
	// Dir is the durable store directory shared by every incarnation.
	Dir string
	// Policy is the decision policy each incarnation's LocalDecider runs.
	Policy core.Policy
	// LeaseTTL is the leader lease duration; incarnations renew at a
	// third of it. <= 0 selects 2s.
	LeaseTTL time.Duration
	// Timeout bounds one client round trip against the served manager
	// (it is Resolve's RemoteDecider.Timeout; 0 selects that default).
	Timeout time.Duration
	// Clock drives the lease, the renewal cadence, the standby poll and
	// restart downtime. Nil means clock.Real.
	Clock clock.Clock
	// Tracer receives MgrCrash / MgrRecover events (nil-safe).
	Tracer *obs.Tracer
	// Logf, if set, receives supervisor diagnostics.
	Logf func(string, ...any)
}

// ManagerSupervisor runs crash-restartable swap-manager incarnations
// inside the harness process: each incarnation opens the shared
// mgrstore directory, waits for the leader lease, recovers by WAL
// replay (emitting the MgrRecover evidence event), and serves the
// manager wire protocol on its own listener until killed. Kill is the
// process-level chaos hook a fault.Plan's mgrkill/mgrrestart rules
// invoke: the incarnation's listener, connections and store handles drop
// on the floor — no compaction, no lease release — exactly as a SIGKILL would
// leave them, and recovery has to work from the files alone.
type ManagerSupervisor struct {
	cfg SupervisorConfig

	mu           sync.Mutex
	cur          *mgrIncarnation
	incarnations int
	recoveries   int
	closed       bool
	client       *RemoteDecider // what Resolve hands out for client.Addr
}

// mgrIncarnation is one manager lifetime: store handle, durable
// decider, listener, renewal loop.
type mgrIncarnation struct {
	owner   string
	store   *mgrstore.FileStore
	durable *DurableDecider
	ln      net.Listener
	stop    chan struct{} // closed to end the renewal loop
	renewed chan struct{} // closed once the renewal loop has returned
	served  chan struct{} // closed once ServeManager has closed every connection
	stopped sync.Once
	crashed sync.Once
}

// stopRenewing tells the renewal loop to end, without waiting for it.
func (m *mgrIncarnation) stopRenewing() {
	m.stopped.Do(func() { close(m.stop) })
}

// crash drops the incarnation the way a kill -9 would: listener and
// file handles close, the lease stays behind to expire on its own. Its
// served connections close when ServeManager sees the listener gone;
// wait on served for that.
func (m *mgrIncarnation) crash() {
	m.stopRenewing()
	m.crashed.Do(func() {
		m.ln.Close()
		m.store.Close()
	})
}

func (c SupervisorConfig) ttl() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 2 * time.Second
}

// StartManagerSupervisor validates the config and brings up the first
// incarnation (waiting, like any standby, for the lease if a previous
// run's lease is still live in the directory). It returns once that
// incarnation is serving — Addr and Resolve answer from then on — or
// with the error that kept it from getting there.
func StartManagerSupervisor(cfg SupervisorConfig) (*ManagerSupervisor, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("swaprt: supervisor needs a store dir")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &ManagerSupervisor{cfg: cfg}
	serving := make(chan error, 1)
	s.startIncarnation(serving)
	if err := <-serving; err != nil {
		return nil, fmt.Errorf("swaprt: manager supervisor: %w", err)
	}
	return s, nil
}

// startIncarnation asynchronously brings up the next manager
// incarnation: open the store, win the lease (polling until the
// previous holder's lease expires), recover, serve. serving, when
// non-nil, receives nil once the incarnation serves or the error that
// stopped it; a restart passes nil and has the error logged.
func (s *ManagerSupervisor) startIncarnation(serving chan<- error) {
	s.mu.Lock()
	owner := fmt.Sprintf("mgr-%d", s.incarnations)
	s.incarnations++
	s.mu.Unlock()
	go func() {
		inc, err := s.bringUp(owner)
		if serving != nil {
			serving <- err
		}
		if err != nil {
			s.cfg.Logf("swapmgr-sup: %s: %v", owner, err)
			return
		}
		err = ServeManager(inc.ln, inc.durable, s.cfg.Logf)
		close(inc.served)
		if err != nil && !errors.Is(err, net.ErrClosed) {
			s.cfg.Logf("swapmgr-sup: %s serve: %v", owner, err)
		}
	}()
}

// bringUp takes one incarnation from nothing to current: store handle,
// listener, lease, WAL replay, renewal loop. On error nothing is left
// open.
func (s *ManagerSupervisor) bringUp(owner string) (*mgrIncarnation, error) {
	ttl := s.cfg.ttl()
	store, err := mgrstore.Open(s.cfg.Dir, clock.Or(s.cfg.Clock))
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	inc := &mgrIncarnation{owner: owner, store: store, ln: ln,
		stop: make(chan struct{}), renewed: make(chan struct{}), served: make(chan struct{})}
	addr := ln.Addr().String()

	// Standby: the previous incarnation's lease outlives its crash by
	// design; wait until the clock expires it, unless the supervisor
	// shuts down first.
	if err := store.AwaitLease(owner, addr, ttl, func() bool { return !s.isClosed() }); err != nil {
		inc.crash()
		return nil, fmt.Errorf("acquire lease: %w", err)
	}
	inc.durable, err = NewDurableDecider(NewLocalDecider(s.cfg.Policy), store, s.cfg.Logf)
	if err != nil {
		inc.crash()
		return nil, fmt.Errorf("recover: %w", err)
	}
	st := inc.durable.DurableState()

	s.mu.Lock()
	if s.closed || s.cur != nil {
		s.mu.Unlock()
		inc.crash()
		return nil, errors.New("supervisor shut down (or a rival incarnation won) while waiting on the lease")
	}
	s.cur = inc
	s.recoveries++
	s.mu.Unlock()

	s.cfg.Tracer.EmitNow(obs.Event{Kind: obs.KindMgrRecover, Rank: obs.RankRuntime,
		Epoch: st.Epoch,
		Detail: fmt.Sprintf("wal-replay records=%d epoch=%d quarantined=%d pending=%v owner=%s",
			inc.durable.Replayed(), st.Epoch, len(st.Quarantined), st.Pending != nil, owner)})
	s.cfg.Logf("swapmgr-sup: %s serving on %s (replayed %d records, epoch %d)",
		owner, addr, inc.durable.Replayed(), st.Epoch)

	go func() {
		defer close(inc.renewed)
		if err := store.KeepLease(owner, addr, ttl, inc.stop); err != nil {
			s.cfg.Logf("swapmgr-sup: %s fenced out: %v", owner, err)
			s.dropIfCurrent(inc)
			inc.crash()
		}
	}()
	return inc, nil
}

func (s *ManagerSupervisor) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *ManagerSupervisor) dropIfCurrent(inc *mgrIncarnation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == inc {
		s.cur = nil
	}
}

// Kill crashes the current incarnation (the fault plan's
// mgrkill/mgrrestart hook — pass it to fault.Plan.SetManagerKiller). It
// returns once every connection the incarnation served is closed, so a
// client's kept connection gets no answer from it either. With restart,
// a fresh incarnation is stood up after down of supervisor-clock
// downtime; it still has to wait out the dead leader's lease, so
// effective downtime is max(down, lease remainder).
func (s *ManagerSupervisor) Kill(restart bool, down time.Duration) {
	s.mu.Lock()
	inc := s.cur
	s.cur = nil
	closed := s.closed
	s.mu.Unlock()

	detail := "mgrkill"
	if restart {
		detail = fmt.Sprintf("mgrrestart down=%s", down)
	}
	if inc != nil {
		s.cfg.Tracer.EmitNow(obs.Event{Kind: obs.KindMgrCrash, Rank: obs.RankRuntime, Detail: detail})
		s.cfg.Logf("swapmgr-sup: killed %s (%s)", inc.owner, detail)
		inc.crash()
		<-inc.served
	}
	if !restart || closed {
		return
	}
	if down <= 0 {
		s.startIncarnation(nil)
		return
	}
	clock.Or(s.cfg.Clock).AfterFunc(down, func() { s.startIncarnation(nil) })
}

// Resolve returns a RemoteDecider for the current lease holder — the
// ResilientDecider.Resolver hook that re-finds the leader (old or new)
// after a circuit-opening outage. While the lease names one address it
// is the same *RemoteDecider, so callers share its kept connection.
func (s *ManagerSupervisor) Resolve() (Decider, error) {
	lease, held, err := mgrstore.ReadLease(s.cfg.Dir, clock.Or(s.cfg.Clock))
	if err != nil {
		return nil, err
	}
	if !held || lease.Addr == "" {
		return nil, fmt.Errorf("swaprt: no live manager lease in %s", s.cfg.Dir)
	}
	return s.remote(lease.Addr), nil
}

// remote is the client end for an incarnation serving at addr.
func (s *ManagerSupervisor) remote(addr string) *RemoteDecider {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client == nil || s.client.Addr != addr {
		s.client = &RemoteDecider{Addr: addr, Timeout: s.cfg.Timeout, Clock: s.cfg.Clock}
	}
	return s.client
}

// RecordCircuit durably logs a decision-path circuit transition in the
// current incarnation's store (the ResilientDecider.OnCircuit wiring
// point). Best-effort: with no live incarnation — the very condition an
// "open" transition usually reports — there is nothing to write to, and
// the recovered manager's WAL picks up from its own records instead.
func (s *ManagerSupervisor) RecordCircuit(transition, reason string) {
	s.mu.Lock()
	inc := s.cur
	s.mu.Unlock()
	if inc == nil {
		return
	}
	if err := inc.durable.RecordCircuit(transition + ": " + reason); err != nil {
		s.cfg.Logf("swapmgr-sup: record circuit %s: %v", transition, err)
	}
}

// Addr reports the currently serving incarnation's address ("" if none).
func (s *ManagerSupervisor) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return ""
	}
	return s.cur.ln.Addr().String()
}

// Recoveries reports how many incarnations reached serving state —
// 1 for the initial bring-up plus 1 per completed restart/failover.
func (s *ManagerSupervisor) Recoveries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoveries
}

// Close shuts the supervisor down gracefully: the current incarnation
// compacts its store, releases the lease and closes. Unlike Kill this
// is the clean path — nothing is left for a successor to replay.
func (s *ManagerSupervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	inc := s.cur
	s.cur = nil
	s.mu.Unlock()

	if inc == nil {
		return nil
	}
	// The renewal loop has to be gone before the release: a renewal in
	// flight would write a live lease over the released one, and the
	// successor would wait out a TTL nobody is holding.
	inc.stopRenewing()
	<-inc.renewed
	var firstErr error
	if err := inc.store.Compact(); err != nil {
		firstErr = err
	}
	if err := inc.store.ReleaseLease(inc.owner); err != nil && firstErr == nil {
		firstErr = err
	}
	inc.crash()
	<-inc.served
	return firstErr
}
