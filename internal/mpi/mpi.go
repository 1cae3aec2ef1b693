// Package mpi is a miniature message-passing substrate with MPI-1.2-like
// semantics: a fixed-size world of ranks, communicators, tagged
// point-to-point messages with FIFO ordering per (source, destination,
// communicator), and the collectives the swapping runtime needs (barrier,
// broadcast, gather, reduce, allreduce, split).
//
// There are no mature MPI bindings for Go, and the paper's runtime needs
// only these primitives — including the trick of running an application
// inside private communicators carved out of an over-allocated world — so
// this package implements them from scratch over two transports: an
// in-process transport (goroutines and mailboxes) and a TCP transport
// (one socket mesh, framed by the wire subpackage), selectable per world.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/mpi/wire"
	"repro/internal/obs"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// AnyTag matches messages with any user tag in Recv.
const AnyTag = -1

// ErrWorldClosed is returned by operations on a world whose Run has
// completed or aborted.
var ErrWorldClosed = errors.New("mpi: world closed")

// ErrRecvTimeout is returned by RecvTimeout when no matching message
// arrives before the deadline. The mailbox is left untouched, so a later
// receive can still match the message if it eventually arrives.
var ErrRecvTimeout = errors.New("mpi: receive timed out")

// envelope is one message in flight. Src and Dst are world ranks. It is
// the wire package's Envelope: the TCP transport frames exactly this
// shape, so the two packages share one definition.
type envelope = wire.Envelope

// transport moves envelopes between ranks.
type transport interface {
	// send delivers the envelope to its destination rank; it may block —
	// the TCP transport for as long as writing the envelope to an idle
	// connection's socket takes, or waiting for a write in flight ahead of
	// a large one. It does not wait for a matching receive, with one
	// exception: on TCP a frame larger than the kernel's socket buffers
	// can only go out as fast as its destination reads, and a rank reads
	// only while it receives (inStream), so sending one to a rank that is
	// not receiving waits until it is — MPI's rendezvous — for at most
	// tcpWriteTimeout, after which the send fails. It is done with
	// env.Data and env.Tail when it returns, and an error it returns may be
	// that of its own socket write.
	send(env envelope) error
	// close releases transport resources.
	close() error
}

// mailbox is the per-rank receive queue with MPI matching. On a TCP world
// it also holds the rank's live inbound streams (inStream). While there
// is exactly one, a receive that finds no match in the queue reads that
// stream itself: it returns the first frame that matches and queues every
// other in arrival order, so a message costs its receiver one wake-up and
// no hand-off. While there are more, each has a reader goroutine
// (tcpTransport.readLoop) that queues whatever it decodes. On a virtual
// clock a rank waiting on cond is parked, and signal unparks it first.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []envelope
	closed  bool
	wake    func()      // what a receive's deadline timer runs: kicks the reader, signals
	streams []*inStream // TCP only: the live inbound streams, in admission order
	vt      *clock.Fake // the world's virtual clock, nil on any other
	parked  bool        // the rank waits on cond, idle on vt
}

func newMailbox(vt *clock.Fake) *mailbox {
	m := &mailbox{vt: vt}
	m.cond = sync.NewCond(&m.mu)
	m.wake = func() {
		m.mu.Lock()
		if s := m.direct(); s != nil {
			s.kick()
		}
		m.signal()
		m.mu.Unlock()
	}
	return m
}

func (m *mailbox) push(env envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.queue = append(m.queue, env)
	m.signal()
}

// signal wakes the rank's wait, unparking it first. The caller holds m.mu.
func (m *mailbox) signal() {
	m.unpark()
	m.cond.Broadcast()
}

func (m *mailbox) unpark() {
	if m.parked {
		m.parked = false
		m.vt.Unpark()
	}
}

// match scans the queue for a message matching (comm, src, tag) and, when
// take is set, removes it. The caller must hold m.mu.
func (m *mailbox) match(comm uint64, src, tag int, take bool) (envelope, bool) {
	for i, env := range m.queue {
		if !matches(env, comm, src, tag) {
			continue
		}
		if take {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
		}
		return env, true
	}
	return envelope{}, false
}

func matches(env envelope, comm uint64, src, tag int) bool {
	return env.Comm == comm && (src == AnySource || env.Src == src) && (tag == AnyTag || env.Tag == tag)
}

// pop blocks until a message matching (comm, src, tag) is present and
// removes it. src/tag may be AnySource/AnyTag. It returns ErrWorldClosed
// if the mailbox closes while waiting.
func (m *mailbox) pop(comm uint64, src, tag int) (envelope, error) {
	return m.popDeadline(nil, comm, src, tag, time.Time{}, nil)
}

// sinkRecv is a receive whose match goes to a sink (Comm.RecvTo). When
// the receive reads the rank's stream itself, the match's payload is
// read into sink off the socket: done is then set, with the payload's
// length and sink's error. A match taken from the queue leaves done
// unset, and its payload in the envelope.
type sinkRecv struct {
	sink     Sink
	comm     uint64
	src, tag int

	done bool
	n    int
	err  error
}

// popDeadline is pop with a deadline on clk's timeline (none when clk is
// nil): it returns ErrRecvTimeout once the deadline passes with no
// matching message. A message that is already queued is taken without
// waiting. A receive that reads the rank's stream itself on a clock that
// follows the wall hands the deadline to the socket, so it waits for a
// first byte under it and arms nothing; any other receive that has to
// wait arms a timer that runs m.wake — waiters re-check the clock without
// polling, and a receive reading the stream stops waiting for a first
// byte — and looks at the clock once more after arming it, so a deadline
// that passed in between is not slept through. The fake clock fires
// AfterFunc callbacks on their own goroutines, so m.wake locking m.mu
// cannot deadlock against a driver advancing the clock. With rx, a match
// read off the stream goes to rx's sink (sinkRecv).
func (m *mailbox) popDeadline(clk clock.Clock, comm uint64, src, tag int, deadline time.Time, rx *sinkRecv) (envelope, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var timer *clock.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if env, ok := m.match(comm, src, tag, true); ok {
			return env, nil
		}
		if m.closed {
			return envelope{}, ErrWorldClosed
		}
		if clk != nil && !clk.Now().Before(deadline) {
			return envelope{}, ErrRecvTimeout
		}
		s := m.direct()
		if s != nil && s.reading {
			s = nil
		}
		if clk != nil && timer == nil && (s == nil || !clock.Wall(clk)) {
			timer = clk.AfterFunc(clk.Until(deadline), m.wake)
			continue
		}
		if s != nil {
			if rx != nil {
				rx.comm, rx.src, rx.tag = comm, src, tag
			}
			if env, ok := m.read(s, comm, src, tag, true, clk, deadline, rx); ok {
				return env, nil
			}
			continue
		}
		m.parked = m.vt != nil // idle on vt until signal, or until it unparks itself
		m.vt.Park()
		m.cond.Wait()
		m.unpark()
	}
}

// peek reports whether a matching message is queued, without removing
// it. When none is and the rank's one stream is free, it reads what has
// already arrived on it — waiting at most tcpProbeWait for a first byte —
// and queues it, so a message on its way is seen before any receive asks.
func (m *mailbox) peek(comm uint64, src, tag int) (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if env, ok := m.match(comm, src, tag, false); ok {
		return env, true
	}
	if s := m.direct(); s != nil && !s.reading && !m.closed {
		return m.read(s, comm, src, tag, false, nil, time.Time{}, nil)
	}
	return envelope{}, false
}

// direct is the stream receives read themselves: the rank's only live
// stream, once no reader goroutine holds it. The caller holds m.mu.
func (m *mailbox) direct() *inStream {
	if len(m.streams) == 1 && !m.streams[0].pumped {
		return m.streams[0]
	}
	return nil
}

// read holds s's read token for a receive (take) or a probe (!take) and
// decodes frames until one matches (comm, src, tag), queueing every other.
// A receive returns the match itself; a probe queues it too. A receive
// with a deadline on clk waits for each first byte under it when clk
// follows the wall (a kick from its timer ends the wait otherwise); a
// probe waits on the socket once, for at most tcpProbeWait, and then
// decodes only what that read brought in. A receive with rx hands its
// match's payload to rx's sink as it reads it, and returns the match
// even if the stream dies under the sink: the sink has seen the error.
// read returns false when the caller must look again instead: the world
// closed, s stopped being the rank's one direct stream, a wait ran out,
// or the stream died. Called and returns with m.mu held.
func (m *mailbox) read(s *inStream, comm uint64, src, tag int, take bool, clk clock.Clock, deadline time.Time, rx *sinkRecv) (envelope, bool) {
	s.reading = true
	defer func() {
		s.reading = false
		m.cond.Broadcast()
	}()
	for probed := false; !m.closed && m.direct() == s; probed = !take {
		var wait time.Time
		switch {
		case probed && !s.dec.Ready():
			return envelope{}, false
		case !take:
			wait = clock.RealDeadline(s.t.w.clk, tcpProbeWait)
		case clk == nil:
		case !clk.Now().Before(deadline):
			return envelope{}, false
		case clock.Wall(clk):
			wait = clock.RealDeadline(clk, clk.Until(deadline))
		}
		var env envelope
		err := s.next(m, &env, wait, rx)
		if rx != nil && rx.done {
			if err != nil {
				m.dropStream(s)
			}
			return env, true
		}
		switch {
		case err == errKicked:
			continue
		case err == errNoFrame:
			return envelope{}, false
		case err != nil:
			m.dropStream(s)
			return envelope{}, false
		}
		hit := matches(env, comm, src, tag)
		if !hit || !take {
			m.queue = append(m.queue, env)
			m.cond.Broadcast()
		}
		if hit {
			return env, true
		}
	}
	return envelope{}, false
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.signal()
}

// World is a fixed set of communicating ranks.
type World struct {
	size      int
	boxes     []*mailbox
	counters  []*rankCounters
	metrics   *obs.Registry
	tracer    atomic.Pointer[obs.Tracer]
	transport transport
	clk       clock.Clock
	closed    atomic.Bool
	causal    *obs.Causal     // non-nil when Config.Causal armed the Lamport mesh
	free      []wire.FreeList // per rank: receive buffers handed back through Comm.Release
}

func newWorldShell(size int, clk clock.Clock) *World {
	w := &World{size: size, metrics: obs.NewRegistry(), clk: clock.Or(clk), free: make([]wire.FreeList, size)}
	for i := 0; i < size; i++ {
		w.boxes = append(w.boxes, newMailbox(clock.Virtual(clk)))
		w.counters = append(w.counters, newRankCounters(w.metrics, i))
	}
	return w
}

// Clock reports the world's time source (clock.Real unless Config.Clock
// injected a fake or scaled one). Everything in this package that waits
// or timestamps — receive deadlines, dial backoff, injected fault
// delays, latency samples — follows it.
func (w *World) Clock() clock.Clock { return w.clk }

// Metrics exposes the world's metrics registry: per-rank communication
// counters ("mpi.rank<r>.*") plus transport-level counters ("mpi.tcp.*"
// for TCP worlds). Stats() is the typed view over the same values;
// serve the registry with obs.PromHandler for live inspection.
func (w *World) Metrics() *obs.Registry { return w.metrics }

// SetTracer attaches an event tracer; point-to-point and collective
// operations then emit MPISend/MPIRecv/MPIBarrier/MPICollective events
// while the tracer is enabled. Passing nil detaches. Safe to call
// concurrently with running ranks.
func (w *World) SetTracer(t *obs.Tracer) { w.tracer.Store(t) }

// Tracer reports the attached tracer (nil when none). The returned value
// is nil-safe to use directly.
func (w *World) Tracer() *obs.Tracer { return w.tracer.Load() }

// SetSendLatencySampling toggles the TCP transport's send-latency
// histogram ("mpi.tcp.send_latency_s"). Off (the default) a socket
// write pays one atomic load and nothing else; on, each successful one
// records its wall duration, whether a sender made it (one send on an
// idle connection) or the connection's flusher (a batch of sends). Dial
// time — connection setup, retries, backoff — is never charged here;
// it lands in "mpi.tcp.dial_latency_s" unconditionally. No-op on
// in-process worlds. Safe to call concurrently with running ranks.
func (w *World) SetSendLatencySampling(on bool) {
	tr := w.transport
	if ft, ok := tr.(*faultTransport); ok {
		tr = ft.inner
	}
	if t, ok := tr.(*tcpTransport); ok {
		t.latOn.Store(on)
	}
}

// NewWorld creates an in-process world of the given size on the real
// clock.
func NewWorld(size int) *World {
	return newInprocWorld(size, nil)
}

func newInprocWorld(size int, clk clock.Clock) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: NewWorld(%d)", size))
	}
	w := newWorldShell(size, clk)
	w.transport = &inprocTransport{w: w}
	return w
}

// NewTCPWorld creates a world of the given size whose ranks exchange
// messages over TCP loopback sockets. It binds size listeners on
// 127.0.0.1 ephemeral ports.
func NewTCPWorld(size int) (*World, error) {
	return newTCPWorld(size, nil)
}

func newTCPWorld(size int, clk clock.Clock) (*World, error) {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: NewTCPWorld(%d)", size))
	}
	w := newWorldShell(size, clk)
	tr, err := newTCPTransport(w)
	if err != nil {
		return nil, err
	}
	w.transport = tr
	return w, nil
}

// FaultVerdict is an injector's ruling on a single message delivery.
// Zero value means "deliver normally". At most one of Drop/Err should be
// set; Delay composes with either (the message is delayed, then dropped,
// failed or delivered).
type FaultVerdict struct {
	// Drop silently discards the message: the sender sees success but the
	// receiver never gets it.
	Drop bool
	// Delay holds the message for this long before acting on it.
	Delay time.Duration
	// Err fails the send: the sender observes this error and the message
	// is not delivered. Models refused dials and mid-message resets.
	Err error
	// Detail labels the verdict for trace events (e.g. the rule that
	// fired).
	Detail string
}

// FaultInjector decides the fate of each point-to-point message from src
// to dst. Implementations must be safe for concurrent use: every rank's
// sends consult the injector. The fault subpackage provides a seeded,
// deterministic implementation driven by a textual plan.
type FaultInjector interface {
	Fault(src, dst int) FaultVerdict
}

// Config selects a world's size, transport and optional fault injection.
type Config struct {
	// Size is the number of ranks; must be positive.
	Size int
	// TCP selects the loopback TCP transport instead of the in-process
	// one.
	TCP bool
	// Fault, when non-nil, wraps the transport so every send consults the
	// injector first. Injected faults are counted under "mpi.fault.*" and
	// emit FaultInject trace events when a tracer is attached.
	Fault FaultInjector
	// Clock, when non-nil, replaces the real clock for everything in the
	// world that waits or timestamps: receive deadlines, dial backoff,
	// injected fault delays, latency samples. A clock.NewScaled clock
	// time-accelerates a live world; a clock.Fake makes tests
	// deterministic. Nil means clock.Real.
	Clock clock.Clock
	// Causal arms per-rank Lamport clocks: every point-to-point message
	// (and therefore every collective, which is built on them) carries
	// the sender's (clock, sequence), receivers merge it, and — with a
	// tracer attached — MsgSend/MsgRecv events record the happens-before
	// edges. It changes nothing about the transport: a TCP frame carries
	// the pair whenever the envelope has one (wire package), and a world
	// without Causal never stamps an envelope.
	Causal bool
}

// NewWorldWithConfig creates a world per cfg. It generalizes
// NewWorld/NewTCPWorld with optional fault injection.
func NewWorldWithConfig(cfg Config) (*World, error) {
	var (
		w   *World
		err error
	)
	switch {
	case cfg.TCP && clock.Virtual(cfg.Clock) != nil:
		// Its reader and flusher goroutines wait on sockets the clock
		// cannot see, so it would move time under a frame in flight.
		return nil, errors.New("mpi: a TCP world cannot run on a virtual clock")
	case cfg.TCP:
		w, err = newTCPWorld(cfg.Size, cfg.Clock)
	default:
		w = newInprocWorld(cfg.Size, cfg.Clock)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Causal {
		w.causal = obs.NewCausal(cfg.Size)
	}
	if cfg.Fault != nil {
		w.transport = &faultTransport{
			w:      w,
			inner:  w.transport,
			inj:    cfg.Fault,
			drops:  w.metrics.Counter("mpi.fault.drops"),
			delays: w.metrics.Counter("mpi.fault.delays"),
			errors: w.metrics.Counter("mpi.fault.errors"),
		}
	}
	return w, nil
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.size }

// Run starts one goroutine per rank executing fn — on a virtual clock, a
// participant (clock.Go) — and waits for all of them. The returned error
// joins every rank's error. After Run returns the world is closed.
func (w *World) Run(fn func(r *Rank) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	clock.Go(w.clk, w.size, func(rank int) {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				// Persist the flight-recorder window before tearing
				// the world down: the panic is exactly the moment the
				// recent-event evidence matters.
				w.Tracer().DumpFlight(fmt.Sprintf("rank %d panicked: %v", rank, p))
				// Unblock peers waiting on this rank.
				w.Close()
			}
		}()
		errs[rank] = fn(newRank(w, rank))
	})
	wg.Wait()
	w.Close()
	var joined []error
	for rank, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("rank %d: %w", rank, err))
		}
	}
	return errors.Join(joined...)
}

// Close shuts the world down, failing all pending and future operations
// with ErrWorldClosed. It is idempotent. The closed flag flips before
// any teardown so code sleeping outside the transports (an injected
// fault delay) can observe the shutdown as soon as it wakes.
func (w *World) Close() {
	first := !w.closed.Swap(true)
	for _, b := range w.boxes {
		b.close()
	}
	_ = w.transport.close()
	if first {
		// The final flight-recorder dump of a run: later dumps overwrite
		// earlier ones, so this leaves the most complete window on disk.
		w.Tracer().DumpFlight("world close")
	}
}

// Causal reports the world's Lamport-clock mesh (nil unless Config.Causal
// armed it); telemetry probes read clock progress through it.
func (w *World) Causal() *obs.Causal { return w.causal }

// Rank is one process's handle on the world.
type Rank struct {
	w     *World
	rank  int
	world *Comm // built once: a Comm is immutable
}

func newRank(w *World, rank int) *Rank {
	members := make([]int, w.size)
	for i := range members {
		members[i] = i
	}
	return &Rank{w: w, rank: rank,
		world: &Comm{w: w, me: rank, id: worldCommID, members: members}}
}

// Rank reports this process's world rank.
func (r *Rank) Rank() int { return r.rank }

// Size reports the world size.
func (r *Rank) Size() int { return r.w.size }

// World returns the world communicator, containing every rank.
func (r *Rank) World() *Comm { return r.world }

// inprocTransport delivers envelopes by direct mailbox push.
type inprocTransport struct{ w *World }

func (t *inprocTransport) send(env envelope) error {
	if env.Dst < 0 || env.Dst >= t.w.size {
		return fmt.Errorf("mpi: send to invalid rank %d", env.Dst)
	}
	// The transport owns the copy (Comm.send no longer makes one): the
	// TCP path writes or serializes the payload before returning, so only
	// the direct-push path must detach from the caller's slices — into one
	// buffer the receiver released, when it has one of the size.
	env.Data = wire.AppendPayload(t.w.free[env.Dst].Get(env.Len()), &env)
	env.Tail = nil
	t.w.boxes[env.Dst].push(env)
	return nil
}

func (t *inprocTransport) close() error { return nil }

// faultTransport consults a FaultInjector before handing each envelope to
// the wrapped transport. It emits FaultInject trace events and counts
// injected faults so chaos runs are observable.
type faultTransport struct {
	w      *World
	inner  transport
	inj    FaultInjector
	drops  *obs.Counter
	delays *obs.Counter
	errors *obs.Counter
}

func (t *faultTransport) send(env envelope) error {
	v := t.inj.Fault(env.Src, env.Dst)
	if v.Delay > 0 {
		// A world torn down mid-run must not strand the sender in an
		// injected delay (the PR 6 dial-backoff fix, replayed here): skip
		// the sleep when the world is already closed, and re-check after
		// waking — close() cannot interrupt a sleep already in flight, so
		// the check on the far side keeps the delayed message out of a
		// dead transport.
		if t.w.closed.Load() {
			return ErrWorldClosed
		}
		t.delays.Inc()
		t.emit(env, "delay: "+v.Detail)
		// No locks are held here; sends already run on the caller's
		// goroutine, so sleeping models link latency faithfully.
		t.w.clk.Sleep(v.Delay)
		if t.w.closed.Load() {
			return ErrWorldClosed
		}
	}
	if v.Err != nil {
		t.errors.Inc()
		t.emit(env, "error: "+v.Detail)
		return fmt.Errorf("mpi: injected fault %d->%d: %w", env.Src, env.Dst, v.Err)
	}
	if v.Drop {
		t.drops.Inc()
		t.emit(env, "drop: "+v.Detail)
		return nil
	}
	return t.inner.send(env)
}

func (t *faultTransport) emit(env envelope, detail string) {
	t.w.Tracer().EmitNow(obs.Event{
		Kind:   obs.KindFaultInject,
		Rank:   env.Src,
		Peer:   env.Dst,
		Bytes:  int64(env.Len()),
		Detail: detail,
	})
}

func (t *faultTransport) close() error { return t.inner.close() }
