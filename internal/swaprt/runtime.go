package swaprt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/swaprt/policylens"
)

// Reserved user tags on the world communicator for the two-phase swap
// protocol. Applications using swaprt must keep these tags free on the
// world communicator (they normally communicate on s.Comm() anyway).
const (
	// tagState carries the registered state from the outgoing rank to the
	// incoming spare (payload: 8-byte proposed epoch, then the encoded
	// state set).
	tagState = 0x5a17
	// tagStateAck is the spare's receipt acknowledgment back to the
	// outgoing rank (payload: the 8-byte epoch it received).
	tagStateAck = 0x5a18
	// tagStateCommit carries the agreed outcome from the outgoing rank to
	// the spare: commit (with the final active set) or abort.
	tagStateCommit = 0x5a19
)

// Config configures the swapping runtime for one application run. The
// run has no clock of its own: every wait, deadline, duration and
// timestamp is read off the world's (mpi.Config.Clock) — a clock.Fake
// makes a run deterministic, a clock.NewScaled accelerates it.
type Config struct {
	// Active is N, the number of ranks the application computes on; the
	// remaining world ranks are over-allocated spares.
	Active int
	// Policy gates swap decisions (used when Decider is nil).
	Policy core.Policy
	// Decider overrides the decision engine; nil means a LocalDecider
	// around Policy. Use RemoteDecider to consult a swapmgr daemon.
	Decider Decider
	// Probe measures the current performance of the host running the
	// given world rank (any increasing measure, e.g. flop/s). It is the
	// swap-handler duty and must be safe for concurrent use. Defaults to
	// DefaultProbe (which, with all ranks in one process, reports
	// near-identical rates — tests and demos inject synthetic probes).
	Probe func(worldRank int) float64
	// LinkLatency and LinkBandwidth parameterize the predicted swap cost
	// (core.SwapTime), in seconds and bytes/s. nil selects the defaults
	// (0.5 ms and 100 MB/s); a pointer to zero is honored as a genuine
	// zero (e.g. an idealized zero-latency link).
	LinkLatency   *float64
	LinkBandwidth *float64
	// Logf, if set, receives runtime diagnostics.
	Logf func(format string, args ...any)
	// HandlerInterval, when positive, starts one swap handler per rank —
	// the paper's per-process companion — that probes its host every
	// interval and pushes the measurement to the decider's history, so
	// decisions see load changes that happen between swap points.
	HandlerInterval time.Duration
	// TransferTimeout bounds each leg of the out→in state transfer (the
	// spare's wait for the state, and the outgoing rank's wait for the
	// acknowledgment). When it expires the swap is aborted — the old
	// epoch stays committed and the run continues — instead of hanging
	// the application on a dead spare. <= 0 selects 3s. The swapped-in
	// spare then waits four times as long for the commit or abort (the
	// outgoing rank may finish other transfers and the outcome gather
	// before it can send it).
	TransferTimeout time.Duration
	// Evicted reports that the given rank's host has been reclaimed by
	// its owner (the Condor-style eviction the paper proposes combining
	// with swapping): at the next swap point the process is force-moved
	// to a spare regardless of the policy's thresholds. Nil means no
	// evictions. Must be safe for concurrent use.
	Evicted func(worldRank int) bool
	// Tracer, when set, receives structured runtime events (iterations,
	// swap decisions with the full payback algebra, state transfers,
	// manager assignments, handler probes) and is attached to the world so
	// MPI operations trace too. Nil (the default) records nothing; a set
	// but disabled tracer costs one atomic load per emit site.
	Tracer *obs.Tracer
	// Telemetry, when set, receives live windowed telemetry (iteration
	// times with slowdown detection, probe rates, decision paybacks,
	// quarantine and epoch state) and piggybacks per-rank snapshots on the
	// swap handlers' periodic reports. Nil (the default) records nothing;
	// a set but disabled hub costs one atomic load per observation.
	Telemetry *TelemetryHub

	// Lens, when set, audits the decisions of the LocalDeciders the
	// runtime builds (the default one, NewDecisionStack's stand-in and
	// fallback) on the estimates each was taken on; a decision taken by
	// another process is that manager's to audit (swapmgr -lens). Nil
	// records nothing; a disabled lens costs one atomic load per decision.
	Lens *policylens.Lens
}

func (c Config) fill() Config {
	if c.Probe == nil {
		c.Probe = func(int) float64 { return DefaultProbe() }
	}
	if c.LinkLatency == nil {
		lat := 0.0005
		c.LinkLatency = &lat
	}
	if c.LinkBandwidth == nil {
		bw := 100e6
		c.LinkBandwidth = &bw
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Policy == (core.Policy{}) {
		c.Policy = core.Greedy()
	}
	if c.TransferTimeout <= 0 {
		c.TransferTimeout = 3 * time.Second
	}
	return c
}

// localDecider is the LocalDecider the runtime builds: Policy's, audited by Lens.
func (c Config) localDecider() *LocalDecider {
	d := NewLocalDecider(c.Policy)
	d.Lens = c.Lens
	return d
}

// RunStats summarizes one Run: swap activity, leader decision latency,
// state-transfer volume, and the per-rank MPI transport counters.
type RunStats struct {
	SwapPoints int // swap-point entries by active ranks
	Swaps      int // swap directives committed (out/in pairs)
	Decisions  int // leader decisions taken

	SwapAborts  int // proposed swaps aborted by the two-phase protocol
	Quarantined int // spares quarantined after a failed swap-in

	HandlerReportErrors int // swap-handler reports the decider rejected

	DecideTime    time.Duration // total wall time inside Decider.Decide
	StateBytes    int64         // registered-state bytes shipped between ranks
	StateSendTime time.Duration // total encode+send time on swapped-out ranks
	StateRecvTime time.Duration // total recv+decode time on swapped-in ranks

	MPI mpi.WorldStats // per-rank transport counters at the end of the run
}

// String renders a one-paragraph summary followed by the MPI table.
func (rs RunStats) String() string {
	return fmt.Sprintf(
		"swap points %d, swaps %d (%d aborted, %d quarantined), decisions %d (%s total), state %dB shipped (send %s, recv %s)\n%s",
		rs.SwapPoints, rs.Swaps, rs.SwapAborts, rs.Quarantined,
		rs.Decisions, rs.DecideTime.Round(time.Microsecond),
		rs.StateBytes, rs.StateSendTime.Round(time.Microsecond),
		rs.StateRecvTime.Round(time.Microsecond), rs.MPI)
}

// runCounters holds the runtime's metric handles in the world's registry
// ("swaprt.*"); RunStats is snapshotted from them, so the same numbers
// are live on /metrics during the run and in the returned stats after it.
type runCounters struct {
	swapPoints          *obs.Counter
	swaps               *obs.Counter
	decisions           *obs.Counter
	swapAborts          *obs.Counter
	quarantined         *obs.Counter
	handlerReportErrors *obs.Counter
	decideNS            *obs.Counter
	stateBytes          *obs.Counter
	stateSendNS         *obs.Counter
	stateRecvNS         *obs.Counter
}

func newRunCounters(reg *obs.Registry) *runCounters {
	return &runCounters{
		swapPoints:          reg.Counter("swaprt.swap_points"),
		swaps:               reg.Counter("swaprt.swaps"),
		decisions:           reg.Counter("swaprt.decisions"),
		swapAborts:          reg.Counter("swaprt.swap_aborts"),
		quarantined:         reg.Counter("swaprt.quarantined"),
		handlerReportErrors: reg.Counter("swaprt.handler_report_errors"),
		decideNS:            reg.Counter("swaprt.decide_ns"),
		stateBytes:          reg.Counter("swaprt.state_bytes"),
		stateSendNS:         reg.Counter("swaprt.state_send_ns"),
		stateRecvNS:         reg.Counter("swaprt.state_recv_ns"),
	}
}

// snapshot builds the typed RunStats view over the counters.
func (rc *runCounters) snapshot() RunStats {
	return RunStats{
		SwapPoints:          int(rc.swapPoints.Load()),
		Swaps:               int(rc.swaps.Load()),
		Decisions:           int(rc.decisions.Load()),
		SwapAborts:          int(rc.swapAborts.Load()),
		Quarantined:         int(rc.quarantined.Load()),
		HandlerReportErrors: int(rc.handlerReportErrors.Load()),
		DecideTime:          time.Duration(rc.decideNS.Load()),
		StateBytes:          int64(rc.stateBytes.Load()),
		StateSendTime:       time.Duration(rc.stateSendNS.Load()),
		StateRecvTime:       time.Duration(rc.stateRecvNS.Load()),
	}
}

// timeline is the world's clock with the fixed origin of its seconds
// view (clock.Seconds): the source of every timestamp and duration a run
// records, so a span costs one clock read at each end.
type timeline struct {
	clock.Clock
	origin time.Time
}

// secs places an instant of the clock on the seconds view.
func (tl timeline) secs(t time.Time) float64 { return t.Sub(tl.origin).Seconds() }

func (tl timeline) now() float64 { return tl.secs(tl.Now()) }

// Session is one rank's handle on the swapping runtime. All methods must
// be called from the rank's own goroutine (inside the Run body).
type Session struct {
	r     *mpi.Rank
	cfg   Config
	mgr   *manager
	stats *runCounters
	tr    *obs.Tracer // == cfg.Tracer; nil-safe
	tl    timeline

	state     *stateSet
	active    bool
	done      bool
	epoch     uint64
	activeSet []int
	comm      *mpi.Comm
	iterStart time.Time
	swaps     int // swaps this rank participated in (in or out)

	// buf is this rank's message buffer: the state is encoded into it on
	// the way out (behind the 8-byte epoch) and a checkpoint is staged in
	// it. Send and Write copy before they return, so it is reused by the
	// next swap or checkpoint instead of being allocated per swap (keepBuf).
	buf []byte
}

// maxKeptBuf is the largest message buffer a rank holds on to between
// swaps and checkpoints; it is the wire layer's bound for a connection's
// pending buffers. A process of the paper's upper sizes swaps rarely and
// must not sit on a second copy of its state in between.
const maxKeptBuf = 2 << 20

// keepBuf makes b the rank's message buffer, or drops it if it is too
// large to keep.
func (s *Session) keepBuf(b []byte) {
	if cap(b) > maxKeptBuf {
		b = nil
	}
	s.buf = b
}

// emit records an instant event at the world's current time.
func (s *Session) emit(ev obs.Event) {
	if s.tr.Enabled() {
		ev.T = s.tl.now()
		s.tr.Emit(ev)
	}
}

// startIteration opens the next iteration: one clock read is both the
// IterStart event's time and the instant the next IterEnd measures from.
func (s *Session) startIteration() {
	s.iterStart = s.tl.Now()
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{Kind: obs.KindIterStart, Rank: s.r.Rank(), T: s.tl.secs(s.iterStart), Epoch: s.epoch})
	}
}

// Rank reports the world rank.
func (s *Session) Rank() int { return s.r.Rank() }

// WorldSize reports the total (over-allocated) world size.
func (s *Session) WorldSize() int { return s.r.Size() }

// Active reports whether this rank currently runs the application.
func (s *Session) Active() bool { return s.active }

// Done reports whether the application has finished (set for spares when
// the actives complete).
func (s *Session) Done() bool { return s.done }

// Swaps reports how many swaps this rank took part in.
func (s *Session) Swaps() int { return s.swaps }

// Comm returns the private communicator of the current active set. It
// panics if the rank is not active — inactive ranks must not communicate.
func (s *Session) Comm() *mpi.Comm {
	if !s.active {
		panic(fmt.Sprintf("swaprt: rank %d is not active", s.r.Rank()))
	}
	return s.comm
}

// Register adds a variable to the process state transferred on swap. All
// ranks must register the same names (they run the same program) before
// the first SwapPoint. Fixed-width scalars, strings, []byte and slices of
// fixed-width numerics are copied straight between the variable and the
// message. So is a struct whose fields are all exported and of those
// types, or structs of them, nested or embedded: it is bound field by
// field here, as name.Field, exactly as if each field had been registered
// under that name (which is therefore taken). Any other type is
// gob-encoded whole, and a struct with one field outside the rule — a
// map, pointer, interface, array, []string, slice of structs, named type
// or unexported field, or a type with its own GobEncode or MarshalBinary
// or MarshalText — is such a type: gob rebuilds it from zero on the
// receiving rank, unexported fields included, and costs a decoder
// compiled per swap.
func (s *Session) Register(name string, ptr any) {
	s.state.register(name, ptr)
}

// Run executes body on every rank of the world under the swapping
// runtime. Initially ranks [0, cfg.Active) are active and the rest are
// spares parked inside their first SwapPoint call. The canonical body is
//
//	iter := 0
//	s.Register("iter", &iter)
//	s.Register("x", &x)
//	for !s.Done() && iter < N {
//	    if s.Active() {
//	        // compute one iteration on x; communicate via s.Comm()
//	        iter++
//	    }
//	    if err := s.SwapPoint(); err != nil { return err }
//	}
func Run(world *mpi.World, cfg Config, body func(s *Session) error) error {
	_, err := RunWithStats(world, cfg, body)
	return err
}

// RunWithStats is Run, additionally returning aggregate runtime
// statistics (swap counts, decision latency, state-transfer volume, and
// the MPI transport counters). The stats are valid even when body
// returns an error.
func RunWithStats(world *mpi.World, cfg Config, body func(s *Session) error) (RunStats, error) {
	cfg = cfg.fill()
	if cfg.Active <= 0 || cfg.Active > world.Size() {
		panic(fmt.Sprintf("swaprt: %d active of %d ranks", cfg.Active, world.Size()))
	}
	decider := cfg.Decider
	if decider == nil {
		decider = cfg.localDecider()
	}
	mgr := newManager(world.Size(), cfg, decider)
	if cfg.Tracer != nil {
		world.SetTracer(cfg.Tracer)
	}
	cfg.Telemetry.AttachTracer(cfg.Tracer)

	rc := newRunCounters(world.Metrics())
	tl := timeline{world.Clock(), clock.Origin(world.Clock())}

	// Swap handlers: periodic out-of-band probing, one per rank.
	if cfg.HandlerInterval > 0 {
		stop := make(chan struct{})
		defer close(stop)
		for rank := 0; rank < world.Size(); rank++ {
			go handlerLoop(rank, cfg, tl, decider, rc, stop)
		}
	}

	initial := make([]int, cfg.Active)
	for i := range initial {
		initial[i] = i
	}
	cfg.Telemetry.ObserveEpoch(0, initial)
	err := world.Run(func(r *mpi.Rank) error {
		s := &Session{
			r:         r,
			cfg:       cfg,
			mgr:       mgr,
			stats:     rc,
			tr:        cfg.Tracer,
			tl:        tl,
			state:     newStateSet(),
			activeSet: append([]int(nil), initial...),
		}
		for _, m := range initial {
			if m == r.Rank() {
				s.active = true
			}
		}
		if s.active {
			s.comm = r.CommOf(initial, 0)
			s.startIteration()
		}
		// Whatever happens, release parked spares when this rank exits:
		// actives finishing normally end the application; an active
		// erroring out must not leave spares blocked.
		defer func() {
			if s.active || s.done {
				mgr.finish()
			}
		}()
		err := body(s)
		if err != nil {
			mgr.finish()
		}
		return err
	})
	rs := rc.snapshot()
	rs.MPI = world.Stats()
	return rs, err
}

// SwapPoint is the runtime's MPI_Swap(): a full barrier of the active
// set, a measurement report, a policy decision, and — if swaps are
// ordered — the state transfers and communicator rebuild. Spare ranks
// block inside SwapPoint until they are swapped in or the application
// finishes.
func (s *Session) SwapPoint() error {
	if s.done {
		return nil
	}
	if !s.active {
		return s.swapPointSpare()
	}
	return s.swapPointActive()
}

func (s *Session) swapPointSpare() error {
	for {
		a, ok := s.mgr.wait(s.r.Rank())
		if !ok {
			s.done = true
			return nil
		}
		swappedIn, err := s.spareSwapIn(a)
		if err != nil {
			return err
		}
		if swappedIn {
			return nil
		}
		// The proposed swap aborted: park again and wait for the next
		// assignment (or the end of the run).
	}
}

// spareSwapIn executes the spare side of one proposed swap: receive the
// state within the transfer deadline, acknowledge it, then wait for the
// commit/abort outcome. It reports whether the swap committed; a timeout
// or explicit abort returns (false, nil) so the spare parks again.
func (s *Session) spareSwapIn(a assignment) (bool, error) {
	world := s.r.World()
	start := s.tl.Now()

	// Receive the proposed-epoch-prefixed state, skipping stale payloads
	// left over from earlier aborted proposals by the same sender.
	deadline := start.Add(s.cfg.TransferTimeout)
	var data []byte
	recvOK := false
	for {
		remaining := s.tl.Until(deadline)
		if remaining <= 0 {
			break
		}
		var err error
		data, _, err = world.RecvTimeout(a.stateFrom, tagState, remaining)
		if err == mpi.ErrRecvTimeout {
			break
		}
		if err != nil {
			return false, fmt.Errorf("swaprt: rank %d state recv: %w", s.r.Rank(), err)
		}
		if len(data) < 8 {
			continue
		}
		if epoch := binary.BigEndian.Uint64(data[:8]); epoch != a.epoch {
			s.cfg.Logf("rank %d discarding stale state payload (epoch %d, expected %d)",
				s.r.Rank(), epoch, a.epoch)
			world.Release(data)
			continue
		}
		recvOK = true
		break
	}
	if !recvOK {
		s.emit(obs.Event{Kind: obs.KindSwapAbort, Rank: s.r.Rank(),
			Peer: a.stateFrom, Epoch: a.epoch, Detail: "state transfer timed out"})
		s.tr.DumpFlight("swap abort: state transfer timed out")
		s.cfg.Logf("rank %d swap-in aborted: no state from rank %d within %s",
			s.r.Rank(), a.stateFrom, s.cfg.TransferTimeout)
		return false, nil
	}
	// decode copies every byte it keeps into the registered variables, so
	// the message buffer goes back for the next swap-in to be read into.
	stateLen := len(data) - 8
	err := s.state.decode(data[8:])
	world.Release(data)
	if err != nil {
		// A corrupt payload is treated like a failed transfer: do not
		// acknowledge, so the outgoing rank times out and aborts the swap.
		s.emit(obs.Event{Kind: obs.KindSwapAbort, Rank: s.r.Rank(),
			Peer: a.stateFrom, Epoch: a.epoch, Detail: "state decode failed: " + err.Error()})
		s.tr.DumpFlight("swap abort: state decode failed")
		s.cfg.Logf("rank %d swap-in aborted: state decode: %v", s.r.Rank(), err)
		return false, nil
	}
	// Acknowledge receipt (echoing the epoch) and wait for the outcome.
	var ack [8]byte
	binary.BigEndian.PutUint64(ack[:], a.epoch)
	if err := world.Send(a.stateFrom, tagStateAck, ack[:]); err != nil {
		s.cfg.Logf("rank %d state ack send: %v", s.r.Rank(), err)
	}
	commitTimeout := 4 * s.cfg.TransferTimeout
	commitDeadline := s.tl.Now().Add(commitTimeout)
	for {
		remaining := s.tl.Until(commitDeadline)
		if remaining <= 0 {
			s.emit(obs.Event{Kind: obs.KindSwapAbort, Rank: s.r.Rank(),
				Peer: a.stateFrom, Epoch: a.epoch, Detail: "commit timed out"})
			s.tr.DumpFlight("swap abort: commit timed out")
			s.cfg.Logf("rank %d swap-in aborted: no commit from rank %d within %s",
				s.r.Rank(), a.stateFrom, commitTimeout)
			return false, nil
		}
		data, _, err := world.RecvTimeout(a.stateFrom, tagStateCommit, remaining)
		if err == mpi.ErrRecvTimeout {
			continue
		}
		if err != nil {
			return false, fmt.Errorf("swaprt: rank %d commit recv: %w", s.r.Rank(), err)
		}
		msg, err := decodeCommit(data)
		if err != nil {
			return false, err
		}
		if msg.Epoch != a.epoch {
			s.cfg.Logf("rank %d discarding stale commit (epoch %d, expected %d)",
				s.r.Rank(), msg.Epoch, a.epoch)
			continue
		}
		if !msg.Commit {
			s.emit(obs.Event{Kind: obs.KindSwapAbort, Rank: s.r.Rank(),
				Peer: a.stateFrom, Epoch: a.epoch, Detail: "leader aborted"})
			s.tr.DumpFlight("swap abort: leader aborted")
			s.cfg.Logf("rank %d swap-in aborted by leader (epoch %d)", s.r.Rank(), a.epoch)
			return false, nil
		}
		recvDur := s.tl.Since(start)
		s.stats.stateRecvNS.Add(uint64(recvDur))
		if s.tr.Enabled() {
			s.tr.Emit(obs.Event{Kind: obs.KindStateTransfer, Rank: s.r.Rank(), T: s.tl.secs(start),
				Dur: recvDur.Seconds(), Peer: a.stateFrom, Bytes: int64(stateLen),
				Epoch: a.epoch, Detail: "in"})
		}
		s.epoch = a.epoch
		s.activeSet = append([]int(nil), msg.NewSet...)
		s.comm = s.r.CommOf(s.activeSet, s.epoch)
		s.active = true
		s.swaps++
		s.startIteration()
		s.cfg.Logf("rank %d swapped in (epoch %d, state %dB in %s, from rank %d)",
			s.r.Rank(), s.epoch, stateLen, recvDur.Round(time.Microsecond), a.stateFrom)
		return true, nil
	}
}

// planMsg is the *proposed* plan broadcast from the active leader: the
// directives and the epoch they would establish. The final active set is
// not part of the proposal — it is derived from the per-swap outcomes
// after the transfers run.
type planMsg struct {
	Swaps    []SwapDirective
	NewEpoch uint64
}

// commitMsg is the outgoing rank's outcome notification to its spare.
type commitMsg struct {
	Epoch  uint64
	Commit bool
	NewSet []int // final active set; only meaningful when Commit
}

// Per-swap outcome values allgathered after the transfer phase.
const (
	outcomeNone = 0 // this rank was not the swap's outgoing side
	outcomeOK   = 1 // transfer completed and was acknowledged
	outcomeFail = 2 // transfer failed or timed out
)

func (s *Session) swapPointActive() error {
	at := s.tl.Now()
	now, iterTime := s.tl.secs(at), at.Sub(s.iterStart).Seconds()
	s.stats.swapPoints.Inc()
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{Kind: obs.KindIterEnd, Rank: s.r.Rank(), T: now, Value: iterTime, Epoch: s.epoch})
	}
	s.cfg.Telemetry.ObserveIteration(s.r.Rank(), now, iterTime)

	// Measurement report: every active rank probes its own host; the
	// vector is allgathered so the leader can decide and every member
	// stays in lockstep.
	rate := s.cfg.Probe(s.r.Rank())
	rates, err := s.comm.AllGatherFloat64(rate)
	if err != nil {
		return err
	}

	var plan planMsg
	var planBytes []byte // only the leader has a plan to send
	if s.comm.Rank() == 0 {
		swapTime := core.SwapTime(*s.cfg.LinkLatency, *s.cfg.LinkBandwidth, s.stateSizeEstimate())
		decideStart := s.tl.Now()
		resp, err := s.mgr.decide(s.epoch, now, s.activeSet, rates, s.r.Size(), iterTime, swapTime)
		decideDur := s.tl.Since(decideStart)
		if err != nil {
			return err
		}
		s.stats.decisions.Inc()
		s.stats.decideNS.Add(uint64(decideDur))
		s.cfg.Telemetry.ObserveDecision(now, resp.Eval, len(resp.Swaps), decideDur.Seconds())
		if s.tr.Enabled() {
			ev := obs.Event{Kind: obs.KindSwapDecision, Rank: s.r.Rank(), T: s.tl.secs(decideStart),
				Dur: decideDur.Seconds(), IterTime: iterTime, SwapTime: swapTime,
				Swaps: len(resp.Swaps), Epoch: s.epoch}
			if e := resp.Eval; e != nil {
				ev.OldPerf, ev.NewPerf = e.OldPerf, e.NewPerf
				ev.Payback = e.Payback
				ev.Verdict, ev.Reason = e.Verdict, e.Reason
			} else if len(resp.Swaps) > 0 {
				ev.Verdict = "swap"
			} else {
				ev.Verdict = "stay"
			}
			s.tr.Emit(ev)
		}
		s.cfg.Logf("rank %d decision: %d swaps in %s (epoch %d)",
			s.r.Rank(), len(resp.Swaps), decideDur.Round(time.Microsecond), s.epoch)
		plan.Swaps = resp.Swaps
		if len(resp.Swaps) > 0 {
			plan.NewEpoch = s.epoch + 1
		}
		planBytes = encodePlan(plan)
	}
	if planBytes, err = s.comm.Bcast(0, planBytes); err != nil {
		return err
	}
	if plan, err = decodePlan(planBytes); err != nil {
		return err
	}
	if len(plan.Swaps) == 0 {
		s.startIteration()
		return nil
	}

	// Phase 1a — leader wakes the incoming spares with the *proposed*
	// epoch. A full assignment channel means the runtime's bookkeeping is
	// violated (e.g. a pathological remote decider reassigning a parked
	// spare); fail the run loudly rather than deadlocking the leader.
	if s.comm.Rank() == 0 {
		for _, sw := range plan.Swaps {
			if err := s.mgr.assign(sw.In, assignment{
				epoch:     plan.NewEpoch,
				stateFrom: sw.Out,
			}); err != nil {
				s.cfg.Logf("%v", err)
				return err
			}
			if s.tr.Enabled() { // the Detail is built only for a tracer that is on
				s.emit(obs.Event{Kind: obs.KindManagerAssign, Rank: s.r.Rank(),
					Peer: sw.In, Epoch: s.epoch, Detail: fmt.Sprintf("state from rank %d", sw.Out)})
			}
		}
	}

	// Phase 1b — transfers: each outgoing rank ships its state under the
	// transfer deadline. A failed or unacknowledged transfer marks the
	// swap failed instead of failing the run.
	outcome := make([]byte, len(plan.Swaps))
	for i, sw := range plan.Swaps {
		if sw.Out != s.r.Rank() {
			continue
		}
		if err := s.transferOut(sw, plan.NewEpoch); err != nil {
			outcome[i] = outcomeFail
			s.emit(obs.Event{Kind: obs.KindSwapAbort, Rank: s.r.Rank(),
				Peer: sw.In, Epoch: s.epoch, Detail: err.Error()})
			s.tr.DumpFlight("swap abort: " + err.Error())
			s.cfg.Logf("rank %d swap to rank %d aborted: %v", s.r.Rank(), sw.In, err)
		} else {
			outcome[i] = outcomeOK
		}
	}

	// Phase 2a — outcome consensus on the old communicator (outgoing
	// members are still members): gather the per-swap outcomes at the
	// leader, combine, and broadcast the agreed verdict vector.
	parts, err := s.comm.Gather(0, outcome)
	if err != nil {
		return err
	}
	combined := outcome
	if s.comm.Rank() == 0 {
		combined = make([]byte, len(plan.Swaps))
		for _, p := range parts {
			for i := range combined {
				if i < len(p) && p[i] != outcomeNone {
					combined[i] = p[i]
				}
			}
		}
	}
	if combined, err = s.comm.Bcast(0, combined); err != nil {
		return err
	}

	committed := make([]bool, len(plan.Swaps))
	anyCommitted := false
	newSet := append([]int(nil), s.activeSet...)
	for i, sw := range plan.Swaps {
		if i < len(combined) && combined[i] == outcomeOK {
			committed[i] = true
			anyCommitted = true
			for j, m := range newSet {
				if m == sw.Out {
					newSet[j] = sw.In
				}
			}
		}
	}
	newEpoch := s.epoch
	if anyCommitted {
		newEpoch = plan.NewEpoch
	}

	// Leader bookkeeping: count committed swaps, quarantine the spare of
	// every aborted one (it was proposed, assigned and failed to complete
	// the transfer — offering it again would just re-abort).
	if s.comm.Rank() == 0 {
		var quarantined []int
		s.cfg.Telemetry.ObserveEpoch(newEpoch, newSet)
		for i, sw := range plan.Swaps {
			if committed[i] {
				s.stats.swaps.Inc()
				s.cfg.Telemetry.ObserveSwap()
				continue
			}
			s.stats.swapAborts.Inc()
			s.stats.quarantined.Inc()
			s.mgr.quarantine(sw.In)
			quarantined = append(quarantined, sw.In)
			s.cfg.Telemetry.ObserveAbort()
			s.cfg.Telemetry.ObserveQuarantine(sw.In)
			s.emit(obs.Event{Kind: obs.KindQuarantine, Rank: s.r.Rank(), Peer: sw.In,
				Epoch: newEpoch, Detail: fmt.Sprintf("swap %d->%d aborted", sw.Out, sw.In)})
			s.tr.DumpFlight(fmt.Sprintf("spare quarantined: rank %d", sw.In))
			s.cfg.Logf("rank %d quarantined after failed swap-in (rank %d keeps running)",
				sw.In, sw.Out)
		}
		// Close the loop with the decision service: the agreed outcome
		// (commit or abort, plus the quarantines) becomes durable manager
		// state, and the deciding lens learns whether to realize its
		// payback prediction. Best-effort — a manager that misses it
		// reconciles from the next decide's epoch (epoch fencing).
		if err := s.mgr.decider.ReportOutcome(OutcomeMsg{
			Epoch:       plan.NewEpoch,
			Committed:   anyCommitted,
			NewSet:      newSet,
			Quarantined: quarantined,
		}); err != nil {
			s.cfg.Logf("rank %d outcome report (epoch %d): %v", s.r.Rank(), plan.NewEpoch, err)
		}
	}

	// Phase 2b — outcome notification: each outgoing rank tells its spare
	// to commit (with the final set) or abort. The send is best-effort: a
	// lost abort is recovered by the spare's commit timeout; a lost
	// *commit* is the protocol's two-generals residue (see DESIGN §13) —
	// the spare was provably alive moments ago (it acknowledged the
	// state), so only a failure in exactly this window strands the run.
	for i, sw := range plan.Swaps {
		if sw.Out != s.r.Rank() {
			continue
		}
		data := encodeCommit(commitMsg{
			Epoch:  plan.NewEpoch,
			Commit: committed[i],
			NewSet: newSet,
		})
		if err := s.r.World().Send(sw.In, tagStateCommit, data); err != nil {
			s.cfg.Logf("rank %d commit send to rank %d: %v", s.r.Rank(), sw.In, err)
		}
		if committed[i] {
			s.cfg.Logf("rank %d swapped out (epoch %d, to rank %d)",
				s.r.Rank(), newEpoch, sw.In)
			s.active = false
			s.comm = nil
			s.swaps++
			return nil
		}
	}

	if !anyCommitted {
		// Every proposed swap aborted: the old set, epoch and communicator
		// stay in force; just start the next iteration.
		s.startIteration()
		return nil
	}

	// Continuing active member: adopt the agreed set and communicator.
	s.activeSet = newSet
	s.epoch = newEpoch
	s.comm = s.r.CommOf(s.activeSet, s.epoch)
	s.startIteration()
	return nil
}

// transferOut ships the registered state to the proposed spare and waits
// for its acknowledgment within the transfer deadline. The returned
// error describes why the swap must abort; it never fails the run.
func (s *Session) transferOut(sw SwapDirective, newEpoch uint64) error {
	start := s.tl.Now()
	// One copy on this side: variable -> s.buf, behind the epoch; Send
	// writes s.buf to the socket.
	payload, err := s.state.appendTo(binary.BigEndian.AppendUint64(s.buf[:0], newEpoch))
	if err != nil {
		return fmt.Errorf("state encode: %w", err)
	}
	s.keepBuf(payload)
	data := payload[8:]
	world := s.r.World()
	if err := world.Send(sw.In, tagState, payload); err != nil {
		return fmt.Errorf("state send: %w", err)
	}
	deadline := s.tl.Now().Add(s.cfg.TransferTimeout)
	for {
		remaining := s.tl.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("no ack from rank %d within %s", sw.In, s.cfg.TransferTimeout)
		}
		ack, _, err := world.RecvTimeout(sw.In, tagStateAck, remaining)
		if err == mpi.ErrRecvTimeout {
			return fmt.Errorf("no ack from rank %d within %s", sw.In, s.cfg.TransferTimeout)
		}
		if err != nil {
			return fmt.Errorf("ack recv: %w", err)
		}
		if len(ack) != 8 || binary.BigEndian.Uint64(ack) != newEpoch {
			continue // stale ack from an earlier aborted proposal
		}
		break
	}
	sendDur := s.tl.Since(start)
	s.stats.stateBytes.Add(uint64(len(data)))
	s.stats.stateSendNS.Add(uint64(sendDur))
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{Kind: obs.KindStateTransfer, Rank: s.r.Rank(), T: s.tl.secs(start),
			Dur: sendDur.Seconds(), Peer: sw.In, Bytes: int64(len(data)),
			Epoch: newEpoch, Detail: "out"})
	}
	s.cfg.Logf("rank %d state shipped (proposed epoch %d, %dB in %s, to rank %d)",
		s.r.Rank(), newEpoch, len(data), sendDur.Round(time.Microsecond), sw.In)
	return nil
}

// handlerLoop is one rank's swap handler: probe every interval, push to
// the decider's history, stop when the run ends. The HandlerProbe trace
// event is emitted only for measurements the decider actually accepted —
// a trace must not show probes the decision history never saw; failed
// reports are counted and tagged instead.
func handlerLoop(rank int, cfg Config, tl timeline, rep Decider, rc *runCounters, stop <-chan struct{}) {
	t := tl.NewTicker(cfg.HandlerInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			msg := ReportMsg{Rank: rank, Now: tl.now(), Rate: cfg.Probe(rank)}
			cfg.Telemetry.ObserveProbe(rank, msg.Now, msg.Rate)
			msg.Telemetry = cfg.Telemetry.RankSnapshot(rank)
			if err := rep.Report(msg); err != nil {
				rc.handlerReportErrors.Inc()
				cfg.Tracer.Emit(obs.Event{Kind: obs.KindHandlerProbe, Rank: rank, T: msg.Now,
					Value: msg.Rate, Detail: "report-failed: " + err.Error()})
				cfg.Logf("swaprt: handler %d report: %v", rank, err)
				continue
			}
			cfg.Tracer.Emit(obs.Event{Kind: obs.KindHandlerProbe, Rank: rank, T: msg.Now, Value: msg.Rate})
		}
	}
}

// SaveCheckpoint writes the registered state to w — the application-level
// checkpointing the paper notes "can be implemented with limited effort
// for iterative applications". Call it from an active rank at an
// iteration boundary; the blob restores with LoadCheckpoint in a later
// run that registered the same names.
func (s *Session) SaveCheckpoint(w io.Writer) error {
	data, err := s.state.appendTo(s.buf[:0])
	if err != nil {
		return err
	}
	s.keepBuf(data)
	_, err = w.Write(data)
	return err
}

// LoadCheckpoint restores registered state previously written by
// SaveCheckpoint.
func (s *Session) LoadCheckpoint(r io.Reader) error {
	// Read into the rank's own buffer, sized up front when the reader
	// says how much it holds (MinRead more, so finding io.EOF does not
	// grow it).
	n := 0
	if sized, ok := r.(interface{ Len() int }); ok {
		n = sized.Len()
	}
	buf := bytes.NewBuffer(slices.Grow(s.buf[:0], n+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	s.keepBuf(buf.Bytes())
	return s.state.decode(buf.Bytes())
}

// stateSizeEstimate reports the encoded size of the registered state for
// the swap-cost prediction, computed at every swap point: an application
// that resizes a registered slice changes the next prediction.
func (s *Session) stateSizeEstimate() float64 {
	size, err := s.state.encodedSize()
	if err != nil {
		// An unencodable registered type must not silently zero the swap
		// cost — that would make every swap look free and corrupt the
		// payback prediction. Log it, trace it, and predict from the size
		// encodedSize fell back to.
		rank := obs.RankRuntime
		if s.r != nil {
			rank = s.r.Rank()
		}
		if s.cfg.Logf != nil {
			s.cfg.Logf("swaprt: rank %d state size estimate: %v", rank, err)
		}
		s.emit(obs.Event{Kind: obs.KindRuntimeError, Rank: rank,
			Detail: "state size estimate: " + err.Error()})
	}
	return float64(size)
}

// The plan and commit messages have a fixed little-endian layout:
//
//	plan:   newEpoch(u64) n(u64) n x { out(u64) in(u64) }
//	commit: epoch(u64) commit(u8) n(u64) n x rank(u64)
//
// Ranks are two's-complement int64. A decoder checks n against the bytes
// that follow before it allocates.

func encodePlan(p planMsg) []byte {
	b := make([]byte, 0, 16+16*len(p.Swaps))
	b = binary.LittleEndian.AppendUint64(b, p.NewEpoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p.Swaps)))
	for _, sw := range p.Swaps {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(sw.Out)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(sw.In)))
	}
	return b
}

func decodePlan(data []byte) (planMsg, error) {
	r := reader{b: data}
	p := planMsg{NewEpoch: r.u64()}
	n := r.u64()
	if r.err != nil || n != uint64(len(r.b))/16 || len(r.b)%16 != 0 {
		return planMsg{}, fmt.Errorf("swaprt: decode plan: malformed %d-byte message", len(data))
	}
	if n > 0 {
		p.Swaps = make([]SwapDirective, n)
	}
	for i := range p.Swaps {
		p.Swaps[i] = SwapDirective{Out: int(int64(r.u64())), In: int(int64(r.u64()))}
	}
	return p, nil
}

func encodeCommit(m commitMsg) []byte {
	b := make([]byte, 0, 17+8*len(m.NewSet))
	b = binary.LittleEndian.AppendUint64(b, m.Epoch)
	b = append(b, 0)
	if m.Commit {
		b[8] = 1
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(m.NewSet)))
	for _, rank := range m.NewSet {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(rank)))
	}
	return b
}

func decodeCommit(data []byte) (commitMsg, error) {
	r := reader{b: data}
	m := commitMsg{Epoch: r.u64()}
	commit, n := r.u8(), r.u64()
	if r.err != nil || commit > 1 || n != uint64(len(r.b))/8 || len(r.b)%8 != 0 {
		return commitMsg{}, fmt.Errorf("swaprt: decode commit: malformed %d-byte message", len(data))
	}
	m.Commit = commit == 1
	if n > 0 {
		m.NewSet = make([]int, n)
	}
	for i := range m.NewSet {
		m.NewSet[i] = int(int64(r.u64()))
	}
	return m, nil
}
