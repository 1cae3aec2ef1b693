package mpi

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/mpi/wire"
	"repro/internal/obs"
)

// TCP transport tunables. Dials are bounded (attempts with backoff) and
// every write carries a deadline, so a dead or wedged peer fails the one
// send that targets it instead of hanging the whole mesh.
const (
	tcpDialTimeout  = 2 * time.Second
	tcpDialAttempts = 3
	tcpDialBackoff  = 10 * time.Millisecond // doubles per retry
	tcpWriteTimeout = 10 * time.Second

	// tcpMaxPending bounds the bytes queued on one destination behind a
	// write in flight before the senders of small frames block waiting
	// for it to drain.
	tcpMaxPending = 256 << 10

	// tcpDirectMin splits payloads in two. One this large or larger is
	// never copied: its sender waits for the connection's write token and
	// hands the kernel the header and every piece of the payload, Data and
	// Tail, as they lie (one writev), so the pending buffer never grows to
	// the size of a state transfer. A smaller one is copied behind its
	// header and goes out in one plain write — at once when the connection
	// is idle, with the flusher's next batch when it is not. Below 16 KiB
	// the copy is under a microsecond and does not show against the
	// syscall; at 64 KiB the direct write is 4-9 us faster (EXPERIMENTS.md
	// "State transfer").
	tcpDirectMin = 16 << 10

	// tcpProbeWait is how long Iprobe waits on the socket for the first
	// byte of a frame: long enough that a frame already in the kernel's
	// buffer is always read, short enough to be no wait for one that is
	// not coming.
	tcpProbeWait = time.Millisecond
)

// A receive reading its rank's stream is told to stop waiting for a first
// byte by a read deadline in the past: aLongTimeAgo fails the pending read
// at once.
var aLongTimeAgo = time.Unix(1, 0)

var (
	// errKicked: a wait for a frame's first byte was cut short (kick) and
	// nothing was read; the reader looks at why and waits again or leaves.
	errKicked = errors.New("mpi: stream read interrupted")
	// errNoFrame: no frame began to arrive before the wait's deadline.
	errNoFrame = errors.New("mpi: no frame before the deadline")
)

// inStream is one admitted inbound connection of a rank: a stream of
// frames from every rank that sends to it (all of them share the rank's
// one tcpConn), so in normal operation a rank has exactly one. Whoever
// holds its read token (reading, under the rank's mailbox lock) decodes
// it: a receive of that rank while it is the only stream, its reader
// goroutine (pumped) while the rank has more than one — after a re-dial
// that followed a failed write, say, until the old connection's read
// fails — so that a receive never blocks on one socket while its message
// sits in another. The count of live streams selects the reader.
type inStream struct {
	t    *tcpTransport
	conn net.Conn
	dec  *wire.Decoder

	reading bool // the read token; under the mailbox lock
	pumped  bool // a reader goroutine owns the stream; under the mailbox lock
	// waiting is set while the token's holder waits for a frame's first
	// byte: the one point at which kick may cut its read short.
	waiting atomic.Bool
}

// kick cuts short the token holder's wait for a first byte, if it is
// waiting: a receive whose deadline passed, or that must hand the stream
// to a reader goroutine, or a reader goroutine whose stream went back to
// the receives. A holder that is inside a frame is never interrupted.
// The caller holds the mailbox lock, which next takes before it clears
// the deadline again, so the two never interleave.
func (s *inStream) kick() {
	if s.waiting.CompareAndSwap(true, false) {
		_ = s.conn.SetReadDeadline(aLongTimeAgo)
	}
}

// next decodes the stream's next frame into env for the read token's
// holder, who calls it with m.mu held and gets it back held. Until the
// frame's first byte has arrived the wait can end early: by a kick
// (errKicked), or once the wall-clock instant wait passes, if it is not
// zero (errNoFrame). Once that byte is in, the frame is read whole, with
// no deadline: a frame is never abandoned half read, so a wait cut short
// leaves the stream intact. A frame that matches rx's receive has its
// payload read into rx's sink, with m.mu released, and whatever the sink
// leaves unread discarded (sinkRecv); any other is read into env.Data.
// Any other error means the stream is dead.
func (s *inStream) next(m *mailbox, env *envelope, wait time.Time, rx *sinkRecv) error {
	if s.dec.Ready() {
		m.mu.Unlock()
	} else {
		if !wait.IsZero() {
			_ = s.conn.SetReadDeadline(wait)
		}
		s.waiting.Store(true)
		m.mu.Unlock()
		// A receive waits for its message for as long as the peer stays
		// connected; its deadline, a kick or close() ends the wait.
		//swapvet:ignore deadlineio -- receive lifetime is bounded by kick and close(), never by a frame's bytes
		err := s.dec.Await()
		kicked := !s.waiting.CompareAndSwap(true, false)
		if kicked {
			// The kicker set its deadline holding m.mu: taking m.mu orders
			// the reset after it.
			m.mu.Lock()
		}
		if kicked || !wait.IsZero() {
			_ = s.conn.SetReadDeadline(time.Time{})
		}
		if err != nil {
			if !kicked {
				m.mu.Lock()
			}
			switch {
			case !errors.Is(err, os.ErrDeadlineExceeded):
				return err
			case kicked:
				return errKicked
			}
			return errNoFrame
		}
		if kicked {
			m.mu.Unlock()
		}
	}
	n, err := s.dec.DecodeHeader(env)
	switch {
	case err != nil:
	case rx != nil && matches(*env, rx.comm, rx.src, rx.tag):
		rx.done, rx.n = true, n
		rx.err = rx.sink(s.dec.Payload(n), n)
		err = s.dec.SkipPayload()
	default:
		err = s.dec.ReadPayload(env, n)
	}
	m.mu.Lock()
	return err
}

// addStream makes an admitted stream one of the rank's live streams. The
// first is read by receives; a second puts every stream on a reader
// goroutine, kicking a receive that waits on the first so it lets go.
func (m *mailbox) addStream(s *inStream) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.streams = append(m.streams, s)
	if len(m.streams) > 1 {
		for _, o := range m.streams {
			if !o.pumped && o.t.startReader(m, o) {
				o.pumped = true
				o.kick()
			}
		}
	}
	m.cond.Broadcast()
}

// dropStream closes a stream whose read failed and takes it off the
// rank's live streams. When one is left its reader goroutine is kicked,
// so it gives the stream back to the receives. The caller holds m.mu.
func (m *mailbox) dropStream(s *inStream) {
	if i := slices.Index(m.streams, s); i >= 0 {
		m.streams = slices.Delete(m.streams, i, i+1)
	}
	s.t.drop(s.conn)
	if len(m.streams) == 1 {
		m.streams[0].kick()
	}
	m.cond.Broadcast()
}

// tcpConn is the sender side of one destination rank's connection. Each
// destination has its own lock, so sends to distinct ranks proceed in
// parallel and a send blocked on one peer (slow reader, dead host) never
// delays traffic to any other peer. The connection is dialed lazily by
// the first send that needs it.
//
// One write token (writing, under mu) says who may be inside a socket
// write, and whoever holds it writes with no lock held (a blocked write
// never holds mu: the seed's deadlock class). A send that finds the token
// free takes it and writes the socket itself. One that finds it taken
// waits for it if its payload is large (tcpDirectMin) and otherwise
// appends its frame to the encoder's pending buffer; the per-connection
// flusher goroutine takes the token when it is free and writes whatever
// accumulated in one syscall. Frames reach the socket in the order they
// were encoded under mu, because the pending buffer is only ever taken
// whole, by the token's holder. err is the connection's sticky poison:
// set by a failed flush or by close(), observed by the next sender, which
// resets the slot so the send after it re-dials.
type tcpConn struct {
	mu      sync.Mutex
	wake    *sync.Cond // signals the flusher: bytes pending and token free, or poisoned
	drain   *sync.Cond // signals waiting senders: token released or poisoned
	c       net.Conn
	enc     *wire.Encoder
	err     error
	writing bool // the write token

	// The token holder's writev argument, kept here so that a vectored
	// write allocates nothing once iov has grown to the pieces a payload
	// comes in: vec is resliced over iov for every write (net.Buffers
	// consumes itself as it goes).
	vec net.Buffers
	iov [][]byte
}

func newTCPConn() *tcpConn {
	cc := &tcpConn{}
	cc.wake = sync.NewCond(&cc.mu)
	cc.drain = sync.NewCond(&cc.mu)
	return cc
}

// reset clears a poisoned slot so the next send re-dials. Caller holds
// cc.mu and must close the old connection (if any) after releasing it.
func (cc *tcpConn) reset() {
	if cc.enc != nil {
		cc.enc.Close()
	}
	cc.c, cc.enc, cc.err = nil, nil, nil
}

// tcpTransport carries envelopes over a loopback TCP mesh: one listener
// per rank and a lazily dialed per-destination connection on the sender
// side, shared by every rank that sends there. Each connection is a
// one-directional stream of envelopes framed by the wire package: its
// protocol byte, then frames. The receiving rank admits a stream once its
// protocol byte checks out and its first frame has begun to arrive; a
// stream that opens with any other byte is closed and costs its sender
// only that connection. An admitted stream is read by the rank's own
// receives (inStream), so nothing sits between the socket and the
// receiver. The flip side is the send contract in transport: a sender
// can get ahead of its receiver only by what the kernel buffers.
//
// Locking: per-destination tcpConn.mu serializes encodes to that rank
// only; tcpTransport.mu guards the shutdown flag and the socket
// registry (lock orders: tcpConn.mu then tcpTransport.mu, and mailbox.mu
// then tcpTransport.mu, never the reverse). The receive path never takes
// a tcpConn.mu, and socket writes happen with no lock held, on the
// sending goroutine or the connection's flusher, whichever holds the
// connection's write token.
type tcpTransport struct {
	w         *World
	listeners []net.Listener
	addrs     []string
	conns     []*tcpConn // indexed by destination rank

	// Transport-health counters in the world registry ("mpi.tcp.*"):
	// dials that succeeded, dial retries after a failed attempt, accepted
	// inbound connections, socket writes that failed (each once, whoever
	// made it), and how the sends split between the two write paths:
	// written by the sender itself, or queued behind a write in flight.
	dials       *obs.Counter
	dialRetry   *obs.Counter
	accepts     *obs.Counter
	sendErrors  *obs.Counter
	directSends *obs.Counter
	queuedSends *obs.Counter

	// Send-latency sampling ("mpi.tcp.send_latency_s"): off by default
	// and gated by one atomic load per socket write, so the hot path pays
	// no clock readings or histogram locking unless telemetry asked for it.
	// Samples time established-connection socket writes only; dial cost
	// (up to attempts x timeout plus backoff on a dead peer) is recorded
	// separately and unconditionally in "mpi.tcp.dial_latency_s", so a
	// lazy first-send dial can never corrupt the send-latency p99 the
	// anomaly detector replays.
	latOn   atomic.Bool
	sendLat *obs.LockedHistogram
	dialLat *obs.LockedHistogram

	mu    sync.Mutex // guards socks and done
	socks map[net.Conn]struct{}
	done  bool
	wg    sync.WaitGroup
}

func newTCPTransport(w *World) (*tcpTransport, error) {
	t := &tcpTransport{
		w:          w,
		socks:      map[net.Conn]struct{}{},
		dials:      w.metrics.Counter("mpi.tcp.dials"),
		dialRetry:  w.metrics.Counter("mpi.tcp.dial_retries"),
		accepts:    w.metrics.Counter("mpi.tcp.accepts"),
		sendErrors: w.metrics.Counter("mpi.tcp.send_errors"),

		directSends: w.metrics.Counter("mpi.tcp.direct_sends"),
		queuedSends: w.metrics.Counter("mpi.tcp.queued_sends"),
		// Loopback sends complete in microseconds; 0–10 ms in 50 bins
		// resolves the healthy distribution with room for stalls (anything
		// slower lands in the overflow and still shows in the quantiles).
		sendLat: w.metrics.Histogram("mpi.tcp.send_latency_s", 0, 0.010, 50),
		// Dials span 10ms backoffs to seconds of timeout; 0–10 s covers
		// the full bounded-retry schedule.
		dialLat: w.metrics.Histogram("mpi.tcp.dial_latency_s", 0, 10.0, 50),
	}
	t.conns = make([]*tcpConn, w.size)
	for i := range t.conns {
		t.conns[i] = newTCPConn()
	}
	for i := 0; i < w.size; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.close() // best-effort cleanup; the listen error wins
			return nil, fmt.Errorf("mpi: listen for rank %d: %w", i, err)
		}
		t.listeners = append(t.listeners, ln)
		t.addrs = append(t.addrs, ln.Addr().String())
		rank := i
		t.wg.Add(1)
		go t.acceptLoop(rank, ln)
	}
	return t, nil
}

func (t *tcpTransport) closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// register adds a live socket to the shutdown registry; it reports false
// (and leaves the socket unregistered) if the transport already closed.
func (t *tcpTransport) register(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.socks[conn] = struct{}{}
	return true
}

func (t *tcpTransport) deregister(conn net.Conn) {
	t.mu.Lock()
	delete(t.socks, conn)
	t.mu.Unlock()
}

func (t *tcpTransport) acceptLoop(rank int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.done {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.socks[conn] = struct{}{}
		// Add inside the lock: close() flips done under the same lock
		// before it waits, so it either sees this goroutine or this
		// branch never runs.
		t.wg.Add(1)
		t.mu.Unlock()
		t.accepts.Inc()
		go t.admit(rank, conn)
	}
}

// admit waits for a new connection's protocol byte and the first byte of
// its first frame, then makes it one of the rank's live streams; a stream
// that opens with anything else is closed. A connection that sends
// nothing is never admitted, so it cannot stall the rank's receives; it
// holds this goroutine until its peer or close() ends it.
func (t *tcpTransport) admit(rank int, conn net.Conn) {
	defer t.wg.Done()
	dec := wire.NewDecoder(conn)
	dec.UseFreeList(&t.w.free[rank])
	if err := dec.Await(); err != nil {
		t.drop(conn)
		return
	}
	t.w.boxes[rank].addStream(&inStream{t: t, conn: conn, dec: dec})
}

// startReader launches s's reader goroutine, registered with the shutdown
// WaitGroup; it reports false if the transport already closed.
func (t *tcpTransport) startReader(m *mailbox, s *inStream) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.wg.Add(1)
	go t.readLoop(m, s)
	return true
}

// readLoop is a stream's reader goroutine while its rank has more than
// one live stream: it takes the read token once the receive holding it
// lets go, and queues every frame it decodes, until the stream dies or
// is the rank's only one again.
func (t *tcpTransport) readLoop(m *mailbox, s *inStream) {
	defer t.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for s.reading && !m.closed {
		m.cond.Wait()
	}
	if !s.reading {
		s.reading = true
		for !m.closed && len(m.streams) > 1 && slices.Contains(m.streams, s) {
			var env envelope
			switch err := s.next(m, &env, time.Time{}, nil); {
			case err == errKicked:
			case err != nil:
				m.dropStream(s)
			default:
				m.queue = append(m.queue, env)
				m.cond.Broadcast()
			}
		}
		s.reading = false
	}
	s.pumped = false
	m.cond.Broadcast()
}

// dial connects to the destination rank with a bounded number of
// attempts, bailing out early if the transport closes mid-schedule so a
// retry storm against a dead rank cannot outlive close(). The returned
// connection is registered for shutdown. Total dial duration — timeouts
// and backoff sleeps included — lands in "mpi.tcp.dial_latency_s",
// never in the send-latency histogram.
func (t *tcpTransport) dial(dst int) (net.Conn, error) {
	clk := t.w.clk
	start := clk.Now()
	defer func() { t.dialLat.Add(clk.Since(start).Seconds()) }()
	backoff := tcpDialBackoff
	var lastErr error
	for attempt := 0; attempt < tcpDialAttempts; attempt++ {
		if attempt > 0 {
			if t.closed() {
				return nil, ErrWorldClosed
			}
			t.dialRetry.Inc()
			clk.Sleep(backoff)
			backoff *= 2
			if t.closed() {
				return nil, ErrWorldClosed
			}
		}
		conn, err := net.DialTimeout("tcp", t.addrs[dst], clock.RealTimeout(clk, tcpDialTimeout))
		if err != nil {
			lastErr = err
			continue
		}
		if !t.register(conn) {
			_ = conn.Close()
			return nil, ErrWorldClosed
		}
		t.dials.Inc()
		return conn, nil
	}
	return nil, fmt.Errorf("mpi: dial rank %d (%d attempts): %w", dst, tcpDialAttempts, lastErr)
}

func (t *tcpTransport) send(env envelope) error {
	if env.Dst < 0 || env.Dst >= t.w.size {
		return fmt.Errorf("mpi: send to invalid rank %d", env.Dst)
	}
	return t.sendConn(env)
}

// sendConn puts one envelope on the destination's connection, dialing it
// first if needed, and is done with the caller's data slice when it
// returns. On an idle connection this goroutine writes the socket itself
// and a write error fails this send; see tcpConn for who writes when the
// connection is busy.
func (t *tcpTransport) sendConn(env envelope) error {
	cc := t.conns[env.Dst]
	cc.mu.Lock()
	for {
		if cc.err != nil {
			err := cc.err
			conn := cc.c
			cc.reset()
			cc.mu.Unlock()
			if conn != nil {
				// Poisoned by an encode failure or a close() that raced a
				// live connection: whoever wrote it has stopped (or never
				// started), so the socket is ours to drop.
				t.drop(conn)
			}
			if err == ErrWorldClosed || t.closed() {
				return ErrWorldClosed
			}
			return fmt.Errorf("mpi: send to rank %d: %w", env.Dst, err)
		}
		if cc.c == nil {
			// Dial with cc.mu released: a retry storm against a dead rank
			// must not serialize queued senders behind the full backoff
			// schedule, and close() must be able to fail them promptly.
			cc.mu.Unlock()
			if t.closed() {
				return ErrWorldClosed
			}
			conn, err := t.dial(env.Dst)
			if err != nil {
				return err
			}
			cc.mu.Lock()
			if cc.c != nil || cc.err != nil {
				// Lost the dial race (or the slot got poisoned meanwhile):
				// fold the extra connection away and re-evaluate.
				cc.mu.Unlock()
				t.drop(conn)
				cc.mu.Lock()
				continue
			}
			cc.c = conn
			cc.enc = wire.NewEncoder(wire.CodecBinary)
			if !t.startFlusher(cc, conn, cc.enc) {
				// close() won the race after register: surface shutdown.
				cc.reset()
				cc.mu.Unlock()
				t.drop(conn)
				return ErrWorldClosed
			}
			continue
		}
		// Behind a write in flight a small frame queues, up to the bound;
		// a large payload waits for the token, because copying it aside
		// costs more than the wait and would grow the pending buffer to
		// its size.
		direct := env.Len() >= tcpDirectMin
		if cc.writing && (direct || cc.enc.PendingLen() >= tcpMaxPending) {
			cc.drain.Wait()
			continue
		}
		conn, enc := cc.c, cc.enc
		var err error
		if direct {
			err = enc.EncodeHeader(&env)
		} else {
			err = enc.Encode(&env)
		}
		if err != nil {
			// The stream is now unframeable; poison it so the flusher
			// exits and the next send re-dials.
			cc.err = err
			cc.wake.Signal()
			cc.drain.Broadcast()
			cc.mu.Unlock()
			t.sendErrors.Inc()
			return fmt.Errorf("mpi: send to rank %d: encode: %w", env.Dst, err)
		}
		if cc.writing {
			t.queuedSends.Inc()
			cc.mu.Unlock() // the token's holder signals the flusher when it is done
			return nil
		}
		t.directSends.Inc()
		cc.writing = true
		buf := enc.Take()
		cc.mu.Unlock()

		var payload *envelope
		if direct {
			payload = &env
		}
		err = t.writeBatch(cc, conn, buf, payload)

		cc.mu.Lock()
		cc.writing = false
		enc.Recycle(buf)
		if err != nil {
			// This send reports the failure itself, so it leaves no poison
			// behind: it clears the slot, unless a reset already did, and
			// the next send re-dials. Frames queued behind the failed write
			// are lost with the connection, as they are when a flush fails.
			if cc.enc == enc {
				cc.reset()
			}
			cc.wake.Broadcast()
			cc.drain.Broadcast()
			cc.mu.Unlock()
			t.drop(conn)
			if t.closed() {
				return ErrWorldClosed
			}
			return fmt.Errorf("mpi: send to rank %d: write: %w", env.Dst, err)
		}
		if e := cc.enc; e != nil && e.PendingLen() > 0 {
			cc.wake.Signal()
		}
		cc.drain.Broadcast()
		cc.mu.Unlock()
		return nil
	}
}

// writeBatch is the one place a socket is written: buf, then — straight
// from the caller's slices — the payload of env when there is one, Data
// and Tail, as a single vectored write. The caller holds cc's write token
// and no lock. Every write carries a deadline; with sampling on, each
// successful one records its duration, and a failed one counts once in
// "mpi.tcp.send_errors".
func (t *tcpTransport) writeBatch(cc *tcpConn, conn net.Conn, buf []byte, env *envelope) error {
	clk := t.w.clk
	_ = conn.SetWriteDeadline(clock.RealDeadline(clk, tcpWriteTimeout))
	sample := t.latOn.Load()
	var start time.Time
	if sample {
		start = clk.Now()
	}
	var err error
	if env == nil {
		_, err = conn.Write(buf)
	} else {
		cc.iov = append(append(cc.iov[:0], buf, env.Data), env.Tail...)
		cc.vec = cc.iov
		_, err = cc.vec.WriteTo(conn)
		clear(cc.iov) // the caller's memory is not the connection's to keep
	}
	if err != nil {
		t.sendErrors.Inc()
		return err
	}
	if sample {
		t.sendLat.Add(clk.Since(start).Seconds())
	}
	return nil
}

// drop closes a connection this side has finished with and takes it off
// the shutdown registry.
func (t *tcpTransport) drop(conn net.Conn) {
	t.deregister(conn)
	_ = conn.Close()
}

// startFlusher launches the connection's flusher, registered with the
// shutdown WaitGroup. It reports false if the transport already closed
// (close() may be past its wg.Wait; adding would race).
func (t *tcpTransport) startFlusher(cc *tcpConn, conn net.Conn, enc *wire.Encoder) bool {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return false
	}
	t.wg.Add(1)
	t.mu.Unlock()
	go t.flushLoop(cc, conn, enc)
	return true
}

// flushLoop writes what senders queued behind a write in flight: when
// frames are pending and the write token is free it takes the token,
// swaps the pending buffer out under cc.mu and writes it with no lock
// held, so however many sends accumulated meanwhile drain in one syscall.
// On write failure it poisons the slot and drops the connection; on
// close() it observes cc.err and exits. enc is captured (not re-read
// from cc) so a sender resetting the slot mid-write cannot swap the
// encoder under us — a superseded flusher notices cc.enc moved on and
// exits.
func (t *tcpTransport) flushLoop(cc *tcpConn, conn net.Conn, enc *wire.Encoder) {
	defer t.wg.Done()
	cc.mu.Lock()
	for {
		for cc.err == nil && cc.enc == enc && (cc.writing || enc.PendingLen() == 0) {
			cc.wake.Wait()
		}
		if cc.err != nil || cc.enc != enc {
			cc.mu.Unlock()
			return
		}
		cc.writing = true
		buf := enc.Take()
		cc.mu.Unlock()

		err := t.writeBatch(cc, conn, buf, nil)

		cc.mu.Lock()
		cc.writing = false
		enc.Recycle(buf)
		if err != nil {
			// Frames buffered after the failed batch are lost with the
			// connection — the same contract as bytes buffered in a dead
			// kernel socket; senders that need delivery guarantees layer
			// acks (the swap protocol's commit barrier does).
			if cc.err == nil && cc.enc == enc {
				if t.closedLocked() {
					cc.err = ErrWorldClosed
				} else {
					cc.err = fmt.Errorf("write: %w", err)
				}
			}
			cc.wake.Broadcast()
			cc.drain.Broadcast()
			cc.mu.Unlock()
			t.drop(conn)
			return
		}
		cc.drain.Broadcast()
	}
}

// closedLocked is closed() for callers already holding a tcpConn.mu:
// same lock order (tcpConn.mu then tcpTransport.mu).
func (t *tcpTransport) closedLocked() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// close shuts the transport down deterministically: after it returns, no
// accept, read or flusher goroutine is running and every socket is
// closed. A sender blocked in backpressure or mid-dial is unblocked and
// returns ErrWorldClosed without waiting out the dial backoff schedule.
func (t *tcpTransport) close() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	for _, ln := range t.listeners {
		_ = ln.Close()
	}
	for c := range t.socks {
		_ = c.Close()
	}
	t.mu.Unlock()
	// Poison every sender slot: flushers wake, observe the poison and
	// exit; a write in flight, whoever makes it, fails on its closed
	// socket; backpressured senders wake and fail with ErrWorldClosed.
	for _, cc := range t.conns {
		cc.mu.Lock()
		if cc.err == nil {
			cc.err = ErrWorldClosed
		}
		cc.wake.Broadcast()
		cc.drain.Broadcast()
		cc.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}
