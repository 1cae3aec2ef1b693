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

	serveLogf func(string, ...any) // the caller's Logf, nil included: ServeManager builds no line for nil
}

// mgrIncarnation is one supervised Incarnation and the close of its
// serving goroutine.
type mgrIncarnation struct {
	*Incarnation
	served chan struct{} // closed once ServeManager has closed every connection
}

// Incarnation is one lifetime of a durable swap manager: its store
// handle, the decider recovered from it, the listener it serves on and
// the loop that renews its leader lease. StartIncarnation brings one up
// and Close hands it over; fenced out, or killed by its supervisor, it
// crashes instead. ManagerSupervisor runs every incarnation through it,
// and so does the swapmgr daemon with -store.
type Incarnation struct {
	// Durable is the decider recovered from the store: serve it on the
	// incarnation's listener.
	Durable *DurableDecider

	owner   string
	store   *mgrstore.FileStore
	ln      net.Listener
	stop    chan struct{} // closed to end the renewal loop
	renewed chan struct{} // closed once the renewal loop has returned
	fenced  error         // why the renewal loop failed; read after renewed
	stopped sync.Once
	crashed sync.Once
}

// StartIncarnation brings up the incarnation owner over the store in
// dir: it opens the store and takes the leader lease for ln's address —
// while another owner holds it, standby is asked before each retry
// whether to keep waiting — then recovers a DurableDecider over inner
// from the store and renews the lease every ttl/3 on clk (nil means
// clock.Real). A failed renewal means another incarnation fenced this
// one out: it crashes, which closes ln, and Close reports the fence. On
// error nothing is left open, ln included. logf, which may be nil,
// receives the durable decider's diagnostics.
func StartIncarnation(dir, owner string, ttl time.Duration, clk clock.Clock, ln net.Listener,
	inner Decider, standby func() bool, logf func(string, ...any)) (*Incarnation, error) {
	store, err := mgrstore.Open(dir, clock.Or(clk))
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("open store: %w", err)
	}
	inc := &Incarnation{owner: owner, store: store, ln: ln,
		stop: make(chan struct{}), renewed: make(chan struct{})}
	addr := ln.Addr().String()
	if err := store.AwaitLease(owner, addr, ttl, standby); err != nil {
		inc.crash()
		return nil, fmt.Errorf("acquire lease: %w", err)
	}
	if inc.Durable, err = NewDurableDecider(inner, store, logf); err != nil {
		inc.crash()
		return nil, fmt.Errorf("recover: %w", err)
	}
	go func() {
		defer close(inc.renewed)
		if err := store.KeepLease(owner, addr, ttl, inc.stop); err != nil {
			inc.fenced = fmt.Errorf("%s fenced out: %w", owner, err)
			inc.crash()
		}
	}()
	return inc, nil
}

// crash drops the incarnation the way a kill -9 would: the listener and
// the store close, and the lease stays behind to expire on its own.
func (inc *Incarnation) crash() {
	inc.stopped.Do(func() { close(inc.stop) })
	inc.crashed.Do(func() {
		inc.ln.Close()
		inc.store.Close()
	})
}

// Close hands the incarnation over cleanly. The renewal loop ends first
// and is waited out: a renewal in flight would write a live lease over
// the released one, and the successor would wait out a TTL nobody is
// holding. Then the store is compacted, so the successor replays a
// snapshot; the lease is released, so it takes over at once; and the
// incarnation crashes. A fenced-out incarnation has nothing to hand
// over: Close reports the fence.
func (inc *Incarnation) Close() error {
	inc.stopped.Do(func() { close(inc.stop) })
	<-inc.renewed
	if inc.fenced != nil {
		return inc.fenced
	}
	err := inc.store.Compact()
	if rerr := inc.store.ReleaseLease(inc.owner); err == nil {
		err = rerr
	}
	inc.crash()
	return err
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
	serveLogf := cfg.Logf
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	s := &ManagerSupervisor{cfg: cfg, serveLogf: serveLogf}
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
		err = ServeManager(inc.ln, inc.Durable, s.serveLogf)
		close(inc.served)
		if s.dropIfCurrent(inc) {
			// Neither Kill nor Close ended it: fenced out, or the serve failed.
			inc.crash()
			<-inc.renewed
			s.cfg.Logf("swapmgr-sup: %s stopped serving: %v", owner, errors.Join(inc.fenced, err))
		}
	}()
}

// bringUp takes one incarnation from nothing to current: a listener,
// then StartIncarnation over the supervisor's store. On error nothing is
// left open.
func (s *ManagerSupervisor) bringUp(owner string) (*mgrIncarnation, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	// Standby: the previous incarnation's lease outlives its crash by
	// design; wait until the clock expires it, unless the supervisor
	// shuts down first.
	started, err := StartIncarnation(s.cfg.Dir, owner, s.cfg.LeaseTTL, s.cfg.Clock, ln,
		NewLocalDecider(s.cfg.Policy), func() bool { return !s.isClosed() }, s.cfg.Logf)
	if err != nil {
		return nil, err
	}
	inc := &mgrIncarnation{Incarnation: started, served: make(chan struct{})}
	st := inc.Durable.DurableState()

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
			inc.Durable.Replayed(), st.Epoch, len(st.Quarantined), st.Pending != nil, owner)})
	s.cfg.Logf("swapmgr-sup: %s serving on %s (replayed %d records, epoch %d)",
		owner, ln.Addr(), inc.Durable.Replayed(), st.Epoch)
	return inc, nil
}

func (s *ManagerSupervisor) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// dropIfCurrent unsets inc as the current incarnation, reporting
// whether it was.
func (s *ManagerSupervisor) dropIfCurrent(inc *mgrIncarnation) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != inc {
		return false
	}
	s.cur = nil
	return true
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
	if err := inc.Durable.RecordCircuit(transition + ": " + reason); err != nil {
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
	err := inc.Incarnation.Close()
	<-inc.served
	return err
}
