// Package obs is the runtime's observability layer: a low-overhead
// structured event tracer and a metrics registry shared by the live MPI
// transport (internal/mpi), the swapping runtime (internal/swaprt) and
// the discrete-event simulator (internal/simkern + internal/strategy).
//
// The design goal is that the paper's central artifact — the swap
// *decision* — is never invisible: every decision, state transfer and
// transport operation becomes a timestamped, attributable event that can
// be exported (JSONL, Chrome trace_event / Perfetto JSON), folded into
// internal/stats summaries, and asserted on in tests. Because the same
// Event type is emitted with virtual timestamps by the simulator and with
// wall-clock timestamps by the live runtime, a SWAP/DLB/CR experiment run
// and a live 2-rank demo produce traces in the same format.
//
// Tracing is strictly opt-in and cheap when off: every emit site guards
// on Enabled(), which is a nil check plus one atomic load, and all Tracer
// methods are nil-safe so callers never need their own nil guards.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// Kind is the event taxonomy. The set mirrors the runtime's moving parts:
// application iterations, the payback-algebra decision, state transfers,
// the MPI substrate, and the swap manager/handler duo.
type Kind uint8

// Event kinds.
const (
	// KindIterStart / KindIterEnd bracket one application iteration on an
	// active rank (exported as begin/end slices, one track per rank).
	KindIterStart Kind = iota + 1
	KindIterEnd
	// KindSwapDecision is one leader decision, carrying the full payback
	// algebra: old iteration time, old/new performance, predicted swap
	// time, computed payback distance, and the policy verdict + reason.
	KindSwapDecision
	// KindStateTransfer is one registered-state shipment between ranks
	// (Bytes, Detail = "out"/"in", Dur = encode+send or recv+decode).
	KindStateTransfer
	// MPI substrate events: point-to-point and collective entries.
	KindMPISend
	KindMPIRecv
	KindMPIBarrier
	KindMPICollective
	// KindManagerAssign is the leader waking a parked spare.
	KindManagerAssign
	// KindHandlerProbe is one out-of-band swap-handler measurement.
	KindHandlerProbe
	// KindSwapAbort is a proposed swap whose state transfer failed; the
	// epoch was not committed (Peer = the spare involved, Detail = cause).
	KindSwapAbort
	// KindQuarantine marks a spare excluded from future swap candidates
	// after a failed swap-in (Peer = the quarantined rank).
	KindQuarantine
	// KindCircuit is a resilient-decider circuit-breaker transition
	// (Detail = "open" or "close", Reason = cause).
	KindCircuit
	// KindFaultInject is one message fault injected by the chaos transport
	// (Rank = src, Peer = dst, Detail = verdict and rule).
	KindFaultInject
	// KindRuntimeError is a recoverable runtime error that was logged and
	// worked around rather than propagated (Detail = what happened).
	KindRuntimeError
	// KindAnomaly is a telemetry slowdown detection: the rank's iteration
	// time broke upward from its rolling window (Value = the anomalous
	// sample, IterTime = the rolling mean it broke from, Z = the z-score;
	// Detail = the monitored series name, e.g. "iter_time").
	KindAnomaly
	// KindMsgSend / KindMsgRecv are the causal edges of the trace: one
	// Lamport-stamped message send (LC = sender clock after the tick,
	// Seq = sender's per-rank send sequence, Peer = destination) and its
	// matched receive (LC = receiver clock after the merge, PeerLC = the
	// piggybacked sender clock, Seq = the sender's sequence, Peer =
	// source). Together they make the happens-before DAG reconstructible
	// from a trace or a set of flight-recorder dumps.
	KindMsgSend
	KindMsgRecv
	// KindMgrCrash / KindMgrRecover bracket one swap-manager incarnation
	// boundary: a crash (process-level kill, injected or real) and the
	// successor's recovery. The recover event's Detail carries the
	// WAL-replay evidence ("wal-replay records=N epoch=E ...") that
	// CheckTrace counts; both are appended after the earlier
	// kinds so the numeric JSONL encoding of existing traces is
	// unchanged.
	KindMgrCrash
	KindMgrRecover
	// KindPaybackRealized closes the loop on one committed swap: the
	// policy lens watched the post-swap iterations and compares the
	// realized payback against the decision's prediction. Payback = the
	// realized payback distance (0 when the swap never pays back), Value
	// = the predicted payback it is judged against, IterTime = the mean
	// post-swap iteration time, OldPerf/NewPerf/SwapTime echo the
	// prediction's inputs, Z = the relative prediction error (capped),
	// Verdict = "ok", "mispredict" or "never", Epoch = the committed
	// epoch the swap established.
	KindPaybackRealized
	// KindShadowDecision is one counterfactual policy replayed over the
	// same DecideInput the primary decision saw. Detail = the shadow
	// policy's name, Verdict/Reason/OldPerf/NewPerf/Payback = the
	// shadow's own explanation, Swaps = the directives it would have
	// ordered, Value = the estimated iterations won (positive) or lost
	// (negative) had the shadow's verdict been taken instead. Appended
	// after the earlier kinds so the numeric JSONL encoding of existing
	// traces is unchanged.
	KindShadowDecision
	// KindSwapRecord is one proposed round once it settled, emitted by
	// the live leader and the simulator's driver: T = when the plan went
	// out, Dur = the paid time, Epoch = the proposed epoch, Swaps = the
	// directives, SwapTime/Payback = the decision's predictions, Verdict =
	// VerdictCommit if any directive committed, else VerdictAbort, Bytes
	// = a relocation's checkpoint bytes (a round of directives states
	// its bytes on its pairs).
	KindSwapRecord
)

// A swap record's verdict.
const (
	VerdictCommit = "commit"
	VerdictAbort  = "abort"
)

var kindNames = [...]string{
	KindIterStart:     "IterStart",
	KindIterEnd:       "IterEnd",
	KindSwapDecision:  "SwapDecision",
	KindStateTransfer: "StateTransfer",
	KindMPISend:       "MPISend",
	KindMPIRecv:       "MPIRecv",
	KindMPIBarrier:    "MPIBarrier",
	KindMPICollective: "MPICollective",
	KindManagerAssign: "ManagerAssign",
	KindHandlerProbe:  "HandlerProbe",
	KindSwapAbort:     "SwapAbort",
	KindQuarantine:    "Quarantine",
	KindCircuit:       "Circuit",
	KindFaultInject:   "FaultInject",
	KindRuntimeError:  "RuntimeError",
	KindAnomaly:       "Anomaly",
	KindMsgSend:       "MsgSend",
	KindMsgRecv:       "MsgRecv",
	KindMgrCrash:      "MgrCrash",
	KindMgrRecover:    "MgrRecover",

	KindPaybackRealized: "PaybackRealized",
	KindShadowDecision:  "ShadowDecision",
	KindSwapRecord:      "SwapRecord",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one timestamped runtime occurrence. T is seconds since trace
// start — wall seconds in the live runtime, virtual seconds under the
// simulator. Only the fields a Kind documents are meaningful; the rest
// stay zero and are omitted from the JSON encodings.
type Event struct {
	Kind Kind    `json:"kind"`
	Rank int     `json:"rank"`          // world rank; RankRuntime for global events
	T    float64 `json:"t"`             // seconds since trace start
	Dur  float64 `json:"dur,omitempty"` // seconds; 0 for instant events

	Peer  int     `json:"peer,omitempty"`  // counterpart rank/host (-1 = none)
	Bytes int64   `json:"bytes,omitempty"` // payload size
	Value float64 `json:"value,omitempty"` // probe rate or similar scalar

	// Payback-algebra payload (KindSwapDecision).
	IterTime float64 `json:"iter_time,omitempty"` // old iteration time (s)
	OldPerf  float64 `json:"old_perf,omitempty"`  // decisive pair's active rate
	NewPerf  float64 `json:"new_perf,omitempty"`  // decisive pair's spare rate
	SwapTime float64 `json:"swap_time,omitempty"` // predicted swap cost (s)
	Payback  float64 `json:"payback,omitempty"`   // payback distance (iterations)
	Swaps    int     `json:"swaps,omitempty"`     // directives ordered
	Verdict  string  `json:"verdict,omitempty"`   // "swap" or "stay"
	Reason   string  `json:"reason,omitempty"`    // why the verdict
	Z        float64 `json:"z,omitempty"`         // anomaly z-score (KindAnomaly)

	Detail string `json:"detail,omitempty"` // free-form (direction, op name, ...)

	// Causal payload (KindMsgSend / KindMsgRecv, and Epoch on runtime
	// events). All omitempty: traces without causal tracing enabled are
	// byte-identical to the pre-causal JSONL format. Lamport clocks start
	// at 1, so LC != 0 doubles as the presence flag.
	LC     uint64 `json:"lc,omitempty"`      // emitter's Lamport clock after this event
	Seq    uint64 `json:"seq,omitempty"`     // sender's send sequence for the message
	PeerLC uint64 `json:"peer_lc,omitempty"` // piggybacked sender clock (KindMsgRecv)
	Epoch  uint64 `json:"epoch,omitempty"`   // swap epoch the event belongs to

	Round *SwapRound `json:"round,omitempty"` // KindSwapRecord only
}

// SwapRound is what a KindSwapRecord states beyond the Event fields: how
// each directive ended, and the round's phases.
type SwapRound struct {
	Pairs  []SwapPair `json:"pairs"`
	Phases Phases     `json:"phases"`
}

// SwapPair is one directive of a round: Out's process moves to In. A
// committed pair states the state bytes Out sent and the seconds from its
// send to In's ack, on Out's clock; a pair whose transfer failed states
// zeros.
type SwapPair struct {
	Out       int     `json:"out"`
	In        int     `json:"in"`
	Committed bool    `json:"committed,omitempty"`
	Bytes     int64   `json:"bytes,omitempty"`
	Transfer  float64 `json:"transfer,omitempty"`
}

// Phases are a round's consecutive intervals on its leader's timeline, in
// seconds (DESIGN.md §12). Transfer is the longest pair's Transfer, or a
// relocation's checkpoint write and read; Vote is the rest of the leader's
// wait for the votes, and a transfer longer than that wait takes the end
// of Plan. The simulator has only Transfer and Rebuild.
type Phases struct {
	Gather   float64 `json:"gather"`
	Decide   float64 `json:"decide"`
	Plan     float64 `json:"plan"`
	Transfer float64 `json:"transfer"`
	Vote     float64 `json:"vote"`
	Commit   float64 `json:"commit"`
	Rebuild  float64 `json:"rebuild"`
}

// Paid is the time the round cost once the plan went out: a record's Dur.
func (p Phases) Paid() float64 { return p.Plan + p.Transfer + p.Vote + p.Commit + p.Rebuild }

// RankRuntime attributes an event to the runtime itself rather than a
// specific rank (e.g. the simulator's single driver process). Exporters
// give these events their own track.
const RankRuntime = -1

// chunkSize is the per-rank buffer growth quantum: events append into
// fixed-size chunks so recording never copies old events, and the only
// hot-path allocation beyond the event struct itself is one chunk per
// chunkSize events.
const chunkSize = 512

// rankLog is one rank's event buffer. Each rank has its own lock, so
// concurrent ranks never contend with each other.
type rankLog struct {
	mu      sync.Mutex
	full    [][]Event // completed chunks
	cur     []Event
	dropped uint64
}

func (rl *rankLog) emit(ev Event, limit int) {
	rl.mu.Lock()
	if limit > 0 && len(rl.full)*chunkSize+len(rl.cur) >= limit {
		rl.dropped++
		rl.mu.Unlock()
		return
	}
	if rl.cur == nil {
		rl.cur = make([]Event, 0, chunkSize)
	}
	rl.cur = append(rl.cur, ev)
	if len(rl.cur) == chunkSize {
		rl.full = append(rl.full, rl.cur)
		rl.cur = nil
	}
	rl.mu.Unlock()
}

func (rl *rankLog) snapshot() []Event {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	out := make([]Event, 0, len(rl.full)*chunkSize+len(rl.cur))
	for _, c := range rl.full {
		out = append(out, c...)
	}
	return append(out, rl.cur...)
}

// Tracer records typed events into per-rank buffers. All methods are
// nil-safe: a nil *Tracer is a valid "tracing off" tracer, so call sites
// never branch on configuration. A non-nil tracer still records nothing
// until Enable is called; Enabled() is the one-atomic-load hot-path
// guard.
type Tracer struct {
	enabled atomic.Bool
	clock   func() float64
	ranks   []*rankLog
	runtime *rankLog // events with Rank < 0 or >= len(ranks)
	only    []bool   // nil = record every rank; else per-rank filter
	limit   int      // max buffered events per rank; <=0 = unbounded
	sink    atomic.Pointer[sinkBox]
}

// EventSink observes every emitted event independently of the tracer's
// own buffering. It is the seam the flight recorder
// (internal/obs/flight) plugs into: attaching a sink makes Enabled()
// true so emit sites construct events even when full-trace buffering is
// off, and Observe must therefore be cheap and allocation-free on the
// hot path. Dump is invoked by DumpFlight on crash-adjacent triggers.
type EventSink interface {
	Observe(Event)
	Dump(reason string) error
}

// sinkBox wraps the interface so it can live in an atomic.Pointer.
type sinkBox struct{ s EventSink }

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock injects the time source (seconds since trace start). The
// simulator passes its virtual clock; the default is wall time since New.
func WithClock(clock func() float64) Option {
	return func(t *Tracer) { t.clock = clock }
}

// WithRanks restricts recording to the listed ranks (events from other
// ranks are silently skipped, not counted as drops). Runtime-attributed
// events (Rank < 0) are always recorded.
func WithRanks(ranks []int) Option {
	return func(t *Tracer) {
		t.only = make([]bool, len(t.ranks))
		for _, r := range ranks {
			if r >= 0 && r < len(t.only) {
				t.only[r] = true
			}
		}
	}
}

// WithLimit caps the number of buffered events per rank; further events
// are dropped and counted (see Dropped). <= 0 means unbounded.
func WithLimit(n int) Option {
	return func(t *Tracer) { t.limit = n }
}

// New creates a disabled tracer for a world of nranks ranks.
func New(nranks int, opts ...Option) *Tracer {
	if nranks < 0 {
		panic(fmt.Sprintf("obs: New(%d)", nranks))
	}
	t := &Tracer{ranks: make([]*rankLog, nranks), runtime: &rankLog{}}
	for i := range t.ranks {
		t.ranks[i] = &rankLog{}
	}
	for _, o := range opts {
		o(t)
	}
	if t.clock == nil {
		t.clock = clock.Seconds(clock.Real{})
	}
	return t
}

// Enable turns recording on. Nil-safe no-op.
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled.Store(true)
	}
}

// Disable turns recording off. Already-buffered events are kept.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// Enabled reports whether events are being recorded — by the tracer's
// own buffers or by an attached sink. This is the hot-path guard: a nil
// check plus two atomic loads.
func (t *Tracer) Enabled() bool {
	return t != nil && (t.enabled.Load() || t.sink.Load() != nil)
}

// AttachSink routes every subsequent Emit through s in addition to (and
// independently of) the tracer's own buffering; attach a nil sink to
// detach. Nil-safe no-op.
func (t *Tracer) AttachSink(s EventSink) {
	if t == nil {
		return
	}
	if s == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&sinkBox{s: s})
}

// DumpFlight asks the attached sink to persist its recent-event window,
// tagging the dump with reason. It is nil-safe and a no-op without a
// sink, so crash-adjacent call sites (swap abort, quarantine, panic,
// world close) never need configuration guards. The sink's own error
// handling applies; DumpFlight never fails the caller.
func (t *Tracer) DumpFlight(reason string) {
	if t == nil {
		return
	}
	if box := t.sink.Load(); box != nil {
		_ = box.s.Dump(reason)
	}
}

// Now reads the tracer clock (0 on a nil tracer). For duration events,
// read Now at the start, then Emit with T = start and Dur = Now - start.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Ranks reports the world size the tracer was created for.
func (t *Tracer) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.ranks)
}

// Emit records the event exactly as given (the caller stamps T, and Dur
// for duration events). It is a no-op on a nil or disabled tracer, but
// emit sites should still guard with Enabled() so argument construction
// is skipped too.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if box := t.sink.Load(); box != nil {
		box.s.Observe(ev)
	}
	if !t.enabled.Load() {
		return
	}
	rl := t.runtime
	if ev.Rank >= 0 && ev.Rank < len(t.ranks) {
		if t.only != nil && !t.only[ev.Rank] {
			return
		}
		rl = t.ranks[ev.Rank]
	}
	rl.emit(ev, t.limit)
}

// EmitNow stamps the event with the tracer clock and records it — sugar
// for instant events.
func (t *Tracer) EmitNow(ev Event) {
	if !t.Enabled() {
		return
	}
	ev.T = t.clock()
	t.Emit(ev)
}

// Dropped reports how many events were discarded because a per-rank
// buffer hit its limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, rl := range append(append([]*rankLog(nil), t.ranks...), t.runtime) {
		rl.mu.Lock()
		n += rl.dropped
		rl.mu.Unlock()
	}
	return n
}

// Len reports the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, rl := range append(append([]*rankLog(nil), t.ranks...), t.runtime) {
		rl.mu.Lock()
		n += len(rl.full)*chunkSize + len(rl.cur)
		rl.mu.Unlock()
	}
	return n
}

// Events snapshots every buffered event, merged across ranks and sorted
// by (T, Rank), a rank's events at one instant in the order it emitted
// them: on a virtual clock one instant can span a rank's swap from one
// epoch to the next. The output order is deterministic whenever the
// timestamps and each rank's order are (under the simulator's clock and
// the live virtual clock).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, rl := range t.ranks {
		out = append(out, rl.snapshot()...)
	}
	out = append(out, t.runtime.snapshot()...)
	sortEvents(out)
	return out
}

func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		return a.Rank < b.Rank
	})
}
