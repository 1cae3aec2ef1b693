package swaprt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// The two-phase swap (DESIGN.md §13) is one machine with two roles. At
// every swap point the active members run
//
//	measure → decide → propose → transfer → vote → commit | abort → rebuild
//
// as collectives on their communicator, and each spare the leader wakes
// runs receive → ack → outcome against its outgoing rank, point to point
// on the world communicator under three reserved tags (applications keep
// them free there). Every message is little-endian, and the three that
// pass between an outgoing rank and its spare start with the proposed
// epoch, so one await drops whatever an aborted proposal left behind:
//
//	rate:    IEEE bits(u64)                                member → leader   gather
//	plan:    n(u64) n x { out(u64) in(u64) }               leader → members  bcast
//	state:   epoch(u64) encoded state set                  out → spare       0x5a17
//	ack:     epoch(u64)                                    spare → out       0x5a18
//	vote:    n x { outcome(u8) transfer(u64) bytes(u64) }  out → members     announce
//	outcome: epoch(u64) commit(u8) n(u64) n x rank(u64)    out → spare       0x5a19
//
// The rates, the plan and the votes travel on the members' communicator
// under the transport's internal collective tags. Only the leader reads
// the rates, so they go to it alone and the plan is the one message every
// member waits on: a swap point that orders nothing is 2(n−1) messages.
// The vote goes in one hop from each outgoing rank to every other member
// (mpi.Comm.Announce); a member that is no directive's outgoing rank
// sends none. A vote's slot for a directive its sender acked carries the
// send-to-ack time in nanoseconds on the sender's clock and the state
// bytes it sent; every other slot carries zeros. The vote carries no
// epoch: an aborted round keeps the communicator and each round consumes
// one vote per outgoing rank, so per-pair FIFO matches every vote to its
// round. The proposed epoch is always the current one plus one, which
// every member holds, so the plan does not carry it either. Ranks are
// two's-complement int64; a decoder checks n against the bytes that
// follow before it allocates.
const (
	tagState       = 0x5a17
	tagStateAck    = 0x5a18
	tagStateCommit = 0x5a19
)

// An outgoing rank's vote on each directive of a round.
const (
	outcomeNone = 0 // the member is not the directive's outgoing rank
	outcomeOK   = 1 // the state reached the spare and was acknowledged
	outcomeFail = 2 // the transfer failed or timed out
)

// voteSlot is the size of one directive's slot in a vote.
const voteSlot = 17

// ballot is one directive's slot of a vote: the outcome, and for an
// acknowledged transfer its send-to-ack time and state bytes.
type ballot struct {
	outcome  byte
	transfer time.Duration
	bytes    uint64
}

// put writes b into slot i of vote.
func (b ballot) put(vote []byte, i int) {
	slot := vote[i*voteSlot : (i+1)*voteSlot]
	slot[0] = b.outcome
	binary.LittleEndian.PutUint64(slot[1:], uint64(b.transfer))
	binary.LittleEndian.PutUint64(slot[9:], b.bytes)
}

// ballotAt reads slot i of vote.
func ballotAt(vote []byte, i int) ballot {
	slot := vote[i*voteSlot : (i+1)*voteSlot]
	return ballot{outcome: slot[0], transfer: time.Duration(binary.LittleEndian.Uint64(slot[1:])),
		bytes: binary.LittleEndian.Uint64(slot[9:])}
}

// errOutcomeLost ends the run of a spare that acknowledged its state but
// heard neither commit nor abort in time: the members may already count
// it in their set, so parking again would strand them.
var errOutcomeLost = errors.New("swap outcome lost")

// outcomeTimeout is how long a spare that acked waits for the outcome:
// the outgoing rank may finish other transfers and the vote first.
func (s *Session) outcomeTimeout() time.Duration { return 4 * s.cfg.TransferTimeout }

// round is what a proposed round settles to.
type round struct {
	verdict     []byte // per directive: outcomeOK commits it, anything else aborts it
	set         []int  // the active set after the round
	epoch       uint64 // the epoch after the round: one past the old one if anything committed
	quarantined []int  // the spares of the aborted directives
}

func (r round) committed(i int) bool { return r.verdict[i] == outcomeOK }

// newRound settles a round from the outgoing ranks' votes alone. A
// directive's outgoing rank votes in its slot and leaves every other slot
// outcomeNone, so each member settles from the votes it received, and a
// verdict tallies to itself. A committed directive replaces Out by In;
// the spare of every other one is quarantined. The verdict is written
// over verdict's array when it fits.
func newRound(verdict []byte, set []int, epoch uint64, swaps []SwapDirective, votes [][]byte) round {
	verdict = slices.Grow(verdict[:0], len(swaps))[:len(swaps)]
	clear(verdict)
	r := round{verdict: verdict, set: slices.Clone(set), epoch: epoch}
	for _, v := range votes {
		for i := range r.verdict {
			if o := ballotAt(v, i).outcome; o != outcomeNone {
				r.verdict[i] = o
			}
		}
	}
	for i, sw := range swaps {
		if !r.committed(i) {
			r.quarantined = append(r.quarantined, sw.In)
			continue
		}
		r.epoch = epoch + 1
		if j := slices.Index(r.set, sw.Out); j >= 0 {
			r.set[j] = sw.In
		}
	}
	return r
}

// await returns the message under tag from rank from that carries epoch,
// dropping any that carries another, or mpi.ErrRecvTimeout once deadline
// passes. It is the protocol's one timed receive.
func (s *Session) await(from, tag int, epoch uint64, deadline time.Time) ([]byte, error) {
	world := s.r.World()
	for {
		remaining := s.tl.Until(deadline)
		if remaining <= 0 {
			return nil, mpi.ErrRecvTimeout
		}
		data, _, err := world.RecvTimeout(from, tag, remaining)
		if err != nil || len(data) >= 8 && binary.LittleEndian.Uint64(data) == epoch {
			return data, err
		}
		s.dropStale(from, tag, epoch)
		world.Release(data)
	}
}

// dropStale records a message under tag from rank from that carried
// another epoch than the awaited one, which the receive dropped.
func (s *Session) dropStale(from, tag int, epoch uint64) {
	s.emit(obs.Event{Kind: obs.KindRuntimeError, Rank: s.r.Rank(), Peer: from,
		Detail: fmt.Sprintf("stale message (tag %#x) dropped awaiting epoch %d", tag, epoch)})
}

// errStale is readState's verdict on a state message of another epoch.
var errStale = errors.New("swaprt: stale state message")

// errDecode marks a state message of the awaited epoch that did not
// decode.
var errDecode = errors.New("state decode failed")

// awaitState reads the state message from rank from that carries epoch
// into the registered variables, dropping any that carries another as
// await does, or returns mpi.ErrRecvTimeout once deadline passes. A
// message of the epoch that does not decode is an errDecode.
func (s *Session) awaitState(from int, epoch uint64, deadline time.Time) error {
	s.want = epoch
	for {
		remaining := s.tl.Until(deadline)
		if remaining <= 0 {
			return mpi.ErrRecvTimeout
		}
		_, err := s.r.World().RecvTo(from, tagState, remaining, s.sink)
		if err != errStale {
			return err
		}
		s.dropStale(from, tagState, epoch)
	}
}

// readState is the session's state sink (Session.sink): the message's
// epoch, then, when it is the awaited one, the state straight into the
// registered variables (stateSet.decode). A message too short to carry
// an epoch is stale, as await has it.
func (s *Session) readState(r io.Reader, n int) error {
	if n < len(s.got) {
		return errStale
	}
	if _, err := io.ReadFull(r, s.got[:]); err != nil {
		return fmt.Errorf("%w: %w", errDecode, err)
	}
	if binary.LittleEndian.Uint64(s.got[:]) != s.want {
		return errStale
	}
	s.gotSize = n - len(s.got)
	if err := s.state.decode(r, s.gotSize); err != nil {
		return fmt.Errorf("%w: %w", errDecode, err)
	}
	return nil
}

// abort is this rank's one exit from a directive that will not commit:
// the SwapAbort event and a flight-recorder dump.
func (s *Session) abort(peer int, epoch uint64, why string) {
	s.emit(obs.Event{Kind: obs.KindSwapAbort, Rank: s.r.Rank(), Peer: peer, Epoch: epoch, Detail: why})
	s.tr.DumpFlight("swap abort: " + why)
}

// swapPointActive is a member's swap point: the measurement, the
// leader's decision, and the proposed round if it orders swaps.
func (s *Session) swapPointActive() error {
	at := s.tl.Now()
	now, iterTime := s.tl.secs(at), at.Sub(s.iterStart).Seconds()
	s.stats.swapPoints.Inc()
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{Kind: obs.KindIterEnd, Rank: s.r.Rank(), T: now, Value: iterTime, Epoch: s.epoch})
	}
	s.cfg.Telemetry.ObserveIteration(s.r.Rank(), now, iterTime)

	// Measure: every member probes its own host and sends the rate to the
	// leader, the one rank that reads them.
	binary.LittleEndian.PutUint64(s.rate[:], math.Float64bits(s.cfg.Probe(s.r.Rank())))
	parts, err := s.comm.Gather(0, s.rate[:])
	if err != nil {
		return err
	}
	var plan []byte
	if s.comm.Rank() == 0 {
		s.laps[lapGather] = at
		if s.rates, err = decodeRates(s.activeSet, parts, s.rates); err != nil {
			return err
		}
		if plan, err = s.propose(now, iterTime, s.rates); err != nil {
			return err
		}
	}
	if plan, err = s.comm.Bcast(0, plan); err != nil {
		return err
	}
	swaps, err := decodePlan(s.planned, plan)
	if err != nil {
		return err
	}
	s.planned = swaps
	if len(swaps) > 0 {
		if err := s.swap(swaps); err != nil {
			return err
		}
	}
	if s.active {
		s.startIteration()
	}
	return nil
}

// decodeRates decodes the gathered rates, one part per member in comm-rank
// order, into rates. A part that is not one 8-byte rate is an error naming
// its sender (members holds the world ranks): the leader never decides on
// it.
func decodeRates(members []int, parts [][]byte, rates []float64) ([]float64, error) {
	rates = rates[:0]
	for i, p := range parts {
		if len(p) != 8 {
			return nil, fmt.Errorf("swaprt: rate from rank %d: %d bytes, want 8", members[i], len(p))
		}
		rates = append(rates, math.Float64frombits(binary.LittleEndian.Uint64(p)))
	}
	return rates, nil
}

// propose is the leader's decide and propose: one decision on the
// gathered rates, and each incoming spare woken with the proposed epoch
// and its state's source. It returns the plan to broadcast. A full
// assignment channel means the runtime's bookkeeping is violated (e.g. a
// remote decider reassigning a parked spare), and ends the run.
func (s *Session) propose(now, iterTime float64, rates []float64) ([]byte, error) {
	swapTime := core.SwapTime(*s.cfg.LinkLatency, *s.cfg.LinkBandwidth, s.stateSizeEstimate())
	start := s.tl.Now()
	resp, err := s.mgr.decide(s.epoch, now, s.activeSet, rates, s.r.Size(), iterTime, swapTime)
	dur := s.tl.Since(start)
	if err != nil {
		return nil, err
	}
	s.stats.decisions.Inc()
	s.stats.decideNS.Add(uint64(dur))
	s.laps[lapDecide], s.laps[lapPlan] = start, start.Add(dur)
	s.swapTime, s.payback = swapTime, 0
	if resp.Eval != nil {
		s.payback = resp.Eval.Payback
	}
	s.cfg.Telemetry.ObserveDecision(now, resp.Eval, len(resp.Swaps), dur.Seconds())
	if s.tr.Enabled() {
		ev := obs.Event{Kind: obs.KindSwapDecision, Rank: s.r.Rank(), T: s.tl.secs(start),
			Dur: dur.Seconds(), IterTime: iterTime, SwapTime: swapTime,
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
	for _, sw := range resp.Swaps {
		if err := s.mgr.assign(sw.In, assignment{epoch: s.epoch + 1, stateFrom: sw.Out}); err != nil {
			return nil, err
		}
		if s.tr.Enabled() { // the Detail is built only for a tracer that is on
			s.emit(obs.Event{Kind: obs.KindManagerAssign, Rank: s.r.Rank(),
				Peer: sw.In, Epoch: s.epoch, Detail: fmt.Sprintf("state from rank %d", sw.Out)})
		}
	}
	s.plan = encodePlan(s.plan, resp.Swaps)
	return s.plan, nil
}

// The phases of a recorded round (obs.Phases) run from laps[i] to
// laps[i+1] on the leader's timeline.
const (
	lapGather = iota
	lapDecide
	lapPlan
	lapTransfer // transfer and vote: split by the votes (recordRound)
	lapCommit
	lapRebuild
	lapEnd
)

// lap marks the end of a recorded round's phase i-1 and the start of
// phase i. A round that is not recorded reads no clock.
func (s *Session) lap(rec bool, i int) {
	if rec {
		s.laps[i] = s.tl.Now()
	}
}

// swap carries a proposed round through transfer, vote and commit. It
// leaves a member in the round's set and epoch, or an outgoing rank whose
// directive committed out of the set. The leader records the round when a
// tracer or a telemetry hub is on.
func (s *Session) swap(swaps []SwapDirective) error {
	rec := s.comm.Rank() == 0 && (s.tr.Enabled() || s.cfg.Telemetry != nil)
	s.lap(rec, lapTransfer)
	proposed := s.epoch + 1
	s.vote = slices.Grow(s.vote[:0], len(swaps)*voteSlot)[:len(swaps)*voteSlot]
	clear(s.vote)
	s.outgoing = s.outgoing[:0]
	var acked time.Time
	for i, sw := range swaps {
		if j := slices.Index(s.activeSet, sw.Out); j >= 0 && !slices.Contains(s.outgoing, j) {
			s.outgoing = append(s.outgoing, j)
		}
		if sw.Out == s.r.Rank() {
			var b ballot
			acked, b = s.transferOut(sw, proposed)
			b.put(s.vote, i)
		}
	}

	// The vote runs on the old communicator, where the outgoing ranks are
	// still members: each sends its vote straight to every other member,
	// and every member settles the round from the same votes.
	votes, err := s.comm.Announce(s.outgoing, s.vote, s.votes)
	if err != nil {
		return err
	}
	s.votes = votes
	for i, v := range votes {
		if err := checkVote(s.activeSet[s.outgoing[i]], v, len(swaps)); err != nil {
			return err
		}
	}
	r := newRound(s.verdict, s.activeSet, s.epoch, swaps, votes)
	s.verdict = r.verdict
	s.lap(rec, lapCommit)
	if s.comm.Rank() == 0 {
		s.record(r, swaps, proposed)
	}

	left := false
	for i, sw := range swaps {
		if sw.Out != s.r.Rank() {
			continue
		}
		s.sendOutcome(sw.In, proposed, r.committed(i), r.set, acked)
		if left = r.committed(i); left {
			break
		}
	}
	s.lap(rec, lapRebuild)
	switch {
	case left:
		s.active, s.comm = false, nil
		s.swaps++
	case r.epoch != s.epoch:
		s.activeSet, s.epoch = r.set, r.epoch
		s.comm = s.r.CommOf(s.activeSet, s.epoch)
	}
	if rec {
		s.recordRound(r, swaps, proposed)
	}
	return nil
}

// recordRound states a settled round once, after its last phase: the
// SwapRecord for the tracer and the telemetry hub. Each pair carries the
// transfer its outgoing rank voted, and the longest of them is the
// round's transfer phase; the rest of the leader's wait for the votes is
// the vote phase. An outgoing rank may start its transfer while the
// leader still broadcasts the plan, so the transfer phase reaches back
// into the plan phase when the wait is shorter than it. Clamped to the
// plan's start, no phase is negative when two ranks' clocks disagree,
// and the phases sum to the paid time by construction.
func (s *Session) recordRound(r round, swaps []SwapDirective, proposed uint64) {
	s.laps[lapEnd] = s.tl.Now()
	round := &obs.SwapRound{Pairs: make([]obs.SwapPair, len(swaps))}
	verdict := obs.VerdictAbort
	for i, sw := range swaps {
		round.Pairs[i] = obs.SwapPair{Out: sw.Out, In: sw.In, Committed: r.committed(i)}
		if r.committed(i) {
			verdict = obs.VerdictCommit
		}
	}
	var transfer time.Duration
	for _, v := range s.votes {
		for i := range swaps {
			if b := ballotAt(v, i); b.outcome == outcomeOK {
				round.Pairs[i].Bytes, round.Pairs[i].Transfer = int64(b.bytes), b.transfer.Seconds()
				transfer = max(transfer, b.transfer)
			}
		}
	}
	phase := func(i int) time.Duration { return s.laps[i+1].Sub(s.laps[i]) }
	plan, wait := phase(lapPlan), phase(lapTransfer)
	transfer = min(transfer, plan+wait)
	vote := max(wait-transfer, 0)
	plan = plan + wait - transfer - vote
	round.Phases = obs.Phases{Gather: phase(lapGather).Seconds(), Decide: phase(lapDecide).Seconds(),
		Plan: plan.Seconds(), Transfer: transfer.Seconds(), Vote: vote.Seconds(),
		Commit: phase(lapCommit).Seconds(), Rebuild: phase(lapRebuild).Seconds()}
	ev := obs.Event{Kind: obs.KindSwapRecord, Rank: s.r.Rank(), T: s.tl.secs(s.laps[lapPlan]),
		Dur: round.Phases.Paid(), Epoch: proposed, Swaps: len(swaps),
		SwapTime: s.swapTime, Payback: s.payback, Verdict: verdict, Round: round}
	if s.tr.Enabled() {
		s.tr.Emit(ev)
	}
	s.cfg.Telemetry.ObserveRound(ev)
}

// checkVote rejects a vote from world rank from that is not one slot per
// directive of a plan of n, each with a known outcome, a transfer that is
// not negative, and zeros behind any outcome but outcomeOK. A malformed
// vote is never read as outcomeNone: it ends the run.
func checkVote(from int, vote []byte, n int) error {
	if len(vote) != n*voteSlot {
		return fmt.Errorf("swaprt: vote from rank %d: %d bytes for %d directives", from, len(vote), n)
	}
	for i := range n {
		switch b := ballotAt(vote, i); {
		case b.outcome != outcomeNone && b.outcome != outcomeOK && b.outcome != outcomeFail:
			return fmt.Errorf("swaprt: vote from rank %d: outcome %d for directive %d", from, b.outcome, i)
		case b.outcome != outcomeOK && (b.transfer != 0 || b.bytes != 0):
			return fmt.Errorf("swaprt: vote from rank %d: outcome %d for directive %d carries a transfer", from, b.outcome, i)
		case b.transfer < 0:
			return fmt.Errorf("swaprt: vote from rank %d: transfer %d ns for directive %d", from, b.transfer, i)
		}
	}
	return nil
}

// transferOut ships the registered state to the directive's spare and
// waits for its ack. It returns when the ack arrived and the outgoing
// rank's ballot on the directive: outcomeOK with the send-to-ack time and
// the bytes sent, or, once it has aborted the directive, the zero time and
// outcomeFail.
func (s *Session) transferOut(sw SwapDirective, epoch uint64) (time.Time, ballot) {
	start := s.tl.Now()
	// No copy of the state on this side: the epoch, the headers and the
	// scalars go to s.buf, and Send takes every numeric slice from the
	// variable's own memory. It is done with both when it returns.
	head, parts := s.state.appendParts(binary.LittleEndian.AppendUint64(s.buf[:0], epoch), s.parts)
	bytes := partsLen(parts) - 8
	s.keepBuf(head)
	if s.mgr.vt != nil {
		// Virtual time moves only for what is modelled: the state
		// crosses the link in the time the swap cost is predicted at.
		secs := core.SwapTime(*s.cfg.LinkLatency, *s.cfg.LinkBandwidth, float64(bytes))
		s.tl.Sleep(time.Duration(secs * float64(time.Second)))
	}
	err := s.r.World().Send(sw.In, tagState, parts[0], parts[1:]...)
	clear(parts)
	s.parts = parts[:0]
	if err == nil {
		_, err = s.await(sw.In, tagStateAck, epoch, s.tl.Now().Add(s.cfg.TransferTimeout))
	}
	if err != nil {
		s.abort(sw.In, s.epoch, fmt.Sprintf("state to rank %d: %v", sw.In, err))
		return time.Time{}, ballot{outcome: outcomeFail}
	}
	acked := s.tl.Now()
	dur := acked.Sub(start)
	s.stats.stateBytes.Add(uint64(bytes))
	s.stats.stateSendNS.Add(uint64(dur))
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{Kind: obs.KindStateTransfer, Rank: s.r.Rank(), T: s.tl.secs(start),
			Dur: dur.Seconds(), Peer: sw.In, Bytes: int64(bytes), Epoch: epoch, Detail: "out"})
	}
	return acked, ballot{outcome: outcomeOK, transfer: dur, bytes: uint64(bytes)}
}

// sendOutcome tells the spare how its directive ended. An abort goes
// once: a spare that is still waiting for it acked late, after a fault
// already took one message. A commit must arrive, since the members
// already count the spare in: a failed send is retried until the spare
// stops waiting, outcomeTimeout after its ack, and past that the spare
// ends the run itself (errOutcomeLost). The message is encoded into the
// rank's message buffer, which the acknowledged state no longer needs.
func (s *Session) sendOutcome(in int, epoch uint64, commit bool, set []int, acked time.Time) {
	msg := encodeCommit(s.buf, commitMsg{Epoch: epoch, Commit: commit, NewSet: set})
	for {
		err := s.r.World().Send(in, tagStateCommit, msg)
		if err == nil {
			return
		}
		s.emit(obs.Event{Kind: obs.KindRuntimeError, Rank: s.r.Rank(), Peer: in,
			Detail: fmt.Sprintf("outcome send (epoch %d): %v", epoch, err)})
		if !commit || errors.Is(err, mpi.ErrWorldClosed) || s.tl.Until(acked.Add(s.outcomeTimeout())) <= 0 {
			return
		}
		s.tl.Sleep(s.cfg.TransferTimeout / 16)
	}
}

// record is the leader's bookkeeping of a settled round: counters,
// the hub's epoch, the quarantine of every aborted directive's spare (it was
// proposed, assigned and failed to complete the transfer; offering it
// again would only re-abort), and the outcome reported to the decision
// service, which makes it durable manager state and tells the deciding
// lens whether to realize its payback prediction. The report is
// best-effort: a manager that misses it reconciles from the next
// decide's epoch.
func (s *Session) record(r round, swaps []SwapDirective, proposed uint64) {
	s.cfg.Telemetry.ObserveEpoch(r.epoch, r.set)
	for i, sw := range swaps {
		if r.committed(i) {
			s.stats.swaps.Inc()
			continue
		}
		s.stats.swapAborts.Inc()
		s.stats.quarantined.Inc()
		s.mgr.quarantine(sw.In)
		s.emit(obs.Event{Kind: obs.KindQuarantine, Rank: s.r.Rank(), Peer: sw.In,
			Epoch: r.epoch, Detail: fmt.Sprintf("swap %d->%d aborted", sw.Out, sw.In)})
		s.tr.DumpFlight(fmt.Sprintf("spare quarantined: rank %d", sw.In))
	}
	if err := s.mgr.decider.ReportOutcome(OutcomeMsg{Epoch: proposed, Committed: r.epoch == proposed,
		NewSet: r.set, Quarantined: r.quarantined}); err != nil {
		s.emit(obs.Event{Kind: obs.KindRuntimeError, Rank: s.r.Rank(),
			Detail: fmt.Sprintf("outcome report (epoch %d): %v", proposed, err)})
	}
}

// swapPointSpare parks a spare until the leader wakes it or the
// application finishes, and parks it again after every aborted swap-in.
func (s *Session) swapPointSpare() error {
	for {
		a, ok := s.mgr.wait(s.r.Rank())
		if !ok {
			s.done = true
			return nil
		}
		if in, err := s.swapIn(a); in || err != nil {
			return err
		}
	}
}

// swapIn is the spare's side of one proposed swap; it reports whether
// the swap committed. Until it acks, the spare may always park again: the
// outgoing rank cannot vote for a directive it holds no ack for. After
// the ack only the outcome ends the wait, or errOutcomeLost.
func (s *Session) swapIn(a assignment) (bool, error) {
	world := s.r.World()
	start := s.tl.Now()
	// The state is read into the registered variables as it arrives.
	switch err := s.awaitState(a.stateFrom, a.epoch, start.Add(s.cfg.TransferTimeout)); {
	case err == mpi.ErrRecvTimeout:
		s.abort(a.stateFrom, a.epoch, "state transfer timed out")
		return false, nil
	case errors.Is(err, errDecode):
		s.abort(a.stateFrom, a.epoch, err.Error())
		return false, nil
	case err != nil:
		return false, fmt.Errorf("swaprt: rank %d state recv: %w", s.r.Rank(), err)
	}
	stateLen := s.gotSize
	binary.LittleEndian.PutUint64(s.ack[:], a.epoch)
	if err := world.Send(a.stateFrom, tagStateAck, s.ack[:]); err != nil {
		s.abort(a.stateFrom, a.epoch, "state ack send: "+err.Error())
		return false, nil
	}

	data, err := s.await(a.stateFrom, tagStateCommit, a.epoch, s.tl.Now().Add(s.outcomeTimeout()))
	if err == mpi.ErrRecvTimeout {
		s.abort(a.stateFrom, a.epoch, "no outcome")
		return false, fmt.Errorf("swaprt: rank %d acked epoch %d but heard no commit or abort from rank %d within %s: %w",
			s.r.Rank(), a.epoch, a.stateFrom, s.outcomeTimeout(), errOutcomeLost)
	}
	if err != nil {
		return false, fmt.Errorf("swaprt: rank %d outcome recv: %w", s.r.Rank(), err)
	}
	msg, err := decodeCommit(data)
	if err != nil {
		return false, err
	}
	if !msg.Commit {
		s.abort(a.stateFrom, a.epoch, "leader aborted")
		return false, nil
	}
	recvDur := s.tl.Since(start)
	s.stats.stateRecvNS.Add(uint64(recvDur))
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{Kind: obs.KindStateTransfer, Rank: s.r.Rank(), T: s.tl.secs(start),
			Dur: recvDur.Seconds(), Peer: a.stateFrom, Bytes: int64(stateLen),
			Epoch: a.epoch, Detail: "in"})
	}
	s.epoch, s.activeSet = a.epoch, msg.NewSet
	s.comm = s.r.CommOf(s.activeSet, s.epoch)
	s.active = true
	s.swaps++
	s.startIteration()
	return true, nil
}

// commitMsg is the outcome message an outgoing rank sends its spare.
type commitMsg struct {
	Epoch  uint64
	Commit bool
	NewSet []int // final active set; only meaningful when Commit
}

// encodePlan encodes swaps over b, which it grows if b is too small.
func encodePlan(b []byte, swaps []SwapDirective) []byte {
	b = binary.LittleEndian.AppendUint64(slices.Grow(b[:0], 8+16*len(swaps)), uint64(len(swaps)))
	for _, sw := range swaps {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(sw.Out)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(sw.In)))
	}
	return b
}

// decodePlan decodes a plan into swaps' array when it fits.
func decodePlan(swaps []SwapDirective, data []byte) ([]SwapDirective, error) {
	r := reader{b: data}
	n := r.u64()
	if r.err != nil || n != uint64(len(r.b))/16 || len(r.b)%16 != 0 {
		return nil, fmt.Errorf("swaprt: decode plan: malformed %d-byte message", len(data))
	}
	swaps = slices.Grow(swaps[:0], int(n))[:n]
	for i := range swaps {
		swaps[i] = SwapDirective{Out: int(int64(r.u64())), In: int(int64(r.u64()))}
	}
	return swaps, nil
}

// encodeCommit encodes m over b, which it grows if b is too small.
func encodeCommit(b []byte, m commitMsg) []byte {
	b = binary.LittleEndian.AppendUint64(slices.Grow(b[:0], 17+8*len(m.NewSet)), m.Epoch)
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
