package swaprt

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/swaprt/policylens"
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
	// HandlerInterval, when positive, starts one swap handler per rank —
	// the paper's per-process companion — that probes its host every
	// interval and pushes the measurement to the decider's history, so
	// decisions see load changes that happen between swap points.
	HandlerInterval time.Duration
	// TransferTimeout bounds each leg of the out→in state transfer (the
	// spare's wait for the state, and the outgoing rank's wait for the
	// acknowledgment). When it expires the swap is aborted — the old
	// epoch stays committed and the run continues — instead of hanging
	// the application on a dead spare. <= 0 selects 3s. A spare that has
	// acknowledged its state then waits four times as long for the commit
	// or abort, and ends the run if neither comes.
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

	// buf is this rank's message buffer: on the way out the state's
	// headers and scalars are encoded into it (behind the 8-byte epoch),
	// then the swap's outcome, and a checkpoint from a reader that cannot
	// say its length is staged in it. Send and Write are done with it when
	// they return, so it is reused by the next message, swap or checkpoint
	// instead of being allocated per swap (keepBuf). parts is the list of
	// the state's pieces, buf's and the numeric slices' own memory
	// (stateSet.appendParts), kept for the same reason and cleared after
	// each use; staged reads a staged checkpoint.
	buf    []byte
	parts  [][]byte
	staged bytes.Reader
	// The spare's receive of a state: sink reads it into the registered
	// variables (readState), bound once, when the session is made; want
	// is the epoch it awaits, and got the epoch and the size of the state
	// it last read.
	sink    mpi.Sink
	want    uint64
	got     [8]byte
	gotSize int
	// A swap point's scratch, kept from one to the next: this rank's
	// encoded rate and, on the leader, the decoded rates and the encoded
	// plan; the decoded plan; this rank's vote, the comm ranks of the
	// round's outgoing ranks, the votes they sent and the round's verdict;
	// a spare's ack.
	rate     [8]byte
	rates    []float64
	plan     []byte
	planned  []SwapDirective
	vote     []byte
	outgoing []int
	votes    [][]byte
	verdict  []byte
	ack      [8]byte

	// The leader's record of a proposed round: its decision's predictions
	// and the boundaries of its phases (recordRound).
	swapTime, payback float64
	laps              [lapEnd + 1]time.Time
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
// under that name (which is therefore taken). Register panics on any other
// type, naming the first field in the way by path and type ("st.Tags:
// map[string]int"), and registers nothing: a map, pointer, interface,
// array, []string, []bool, slice of structs, chan, unexported field,
// named type (type Grid []float64 registers as (*[]float64)(&g)) or a
// struct with its own GobEncode, MarshalBinary or MarshalText, which
// flattening would drop.
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
	mgr := newManager(cfg, decider, clock.Virtual(world.Clock()))
	if cfg.Tracer != nil {
		world.SetTracer(cfg.Tracer)
	}
	cfg.Telemetry.AttachTracer(cfg.Tracer)

	rc := newRunCounters(world.Metrics())
	tl := timeline{world.Clock(), clock.Origin(world.Clock())}

	// Swap handlers: periodic out-of-band probing, one per rank.
	if cfg.HandlerInterval > 0 {
		for rank := range world.Size() {
			defer every(tl, cfg.HandlerInterval, func() bool { return handlerProbe(rank, cfg, tl, decider, rc) })()
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
		s.sink = s.readState
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
		// actives finishing normally end the application. An error ends
		// the run: the spares are released, and closing the world fails
		// every operation a peer is blocked in with this rank, as a panic
		// does.
		defer func() {
			if s.active || s.done {
				mgr.finish()
			}
		}()
		err := body(s)
		if err != nil {
			mgr.finish()
			world.Close()
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

// handlerProbe is one tick of a rank's swap handler, which ticks until the
// run ends: probe, and push to the decider's history. The HandlerProbe
// trace event is emitted only for measurements the decider actually
// accepted — a trace must not show probes the decision history never
// saw; failed reports are counted and tagged instead.
func handlerProbe(rank int, cfg Config, tl timeline, rep Decider, rc *runCounters) bool {
	msg := ReportMsg{Rank: rank, Now: tl.now(), Rate: cfg.Probe(rank)}
	cfg.Telemetry.ObserveProbe(rank, msg.Now, msg.Rate)
	msg.Telemetry = cfg.Telemetry.RankSnapshot(rank)
	if err := rep.Report(msg); err != nil {
		rc.handlerReportErrors.Inc()
		cfg.Tracer.Emit(obs.Event{Kind: obs.KindHandlerProbe, Rank: rank, T: msg.Now,
			Value: msg.Rate, Detail: "report-failed: " + err.Error()})
		return true
	}
	cfg.Tracer.Emit(obs.Event{Kind: obs.KindHandlerProbe, Rank: rank, T: msg.Now, Value: msg.Rate})
	return true
}

// every runs fn on clk d after it was armed, and again d after each run
// that returns true, until stop: a callback that re-arms itself, so a
// virtual clock counts it runnable only while fn runs.
func every(clk clock.Clock, d time.Duration, fn func() bool) (stop func()) {
	var mu sync.Mutex
	var t *clock.Timer // nil once stopped
	var tick func()
	tick = func() {
		again := fn()
		mu.Lock()
		defer mu.Unlock()
		if again && t != nil {
			t = clk.AfterFunc(d, tick)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	t = clk.AfterFunc(d, tick)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		t.Stop()
		t = nil
	}
}

// SaveCheckpoint writes the registered state to w — the application-level
// checkpointing the paper notes "can be implemented with limited effort
// for iterative applications". Call it from an active rank at an
// iteration boundary; the blob restores with LoadCheckpoint in a later
// run that registered the same names.
func (s *Session) SaveCheckpoint(w io.Writer) error {
	head, parts := s.state.appendParts(s.buf[:0], s.parts)
	s.keepBuf(head)
	var err error
	for _, p := range parts {
		if _, err = w.Write(p); err != nil {
			break
		}
	}
	clear(parts)
	s.parts = parts[:0]
	return err
}

// LoadCheckpoint restores registered state previously written by
// SaveCheckpoint. A reader that says how much it holds (a Len method:
// bytes.Reader, bytes.Buffer, strings.Reader) is decoded from as it is
// read, every numeric slice straight into its memory; any other is read
// to its end into the rank's message buffer first, because the decoder
// checks every count against the bytes that are there.
func (s *Session) LoadCheckpoint(r io.Reader) error {
	if sized, ok := r.(interface{ Len() int }); ok {
		return s.state.decode(r, sized.Len())
	}
	buf := bytes.NewBuffer(s.buf[:0])
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	data := buf.Bytes()
	s.keepBuf(data)
	s.staged.Reset(data)
	defer s.staged.Reset(nil)
	return s.state.decode(&s.staged, len(data))
}

// stateSizeEstimate reports the encoded size of the registered state for
// the swap-cost prediction, computed at every swap point: an application
// that resizes a registered slice changes the next prediction.
func (s *Session) stateSizeEstimate() float64 {
	return float64(s.state.encodedSize())
}
