package mpi

import (
	"fmt"
	"net"
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
	// hands the kernel header and payload as two pieces (writev), so the
	// pending buffer never grows to the size of a state transfer. A
	// smaller one is copied behind its header and goes out in one plain
	// write — at once when the connection is idle, with the flusher's
	// next batch when it is not. Below 16 KiB the copy is under a
	// microsecond and does not show against the syscall; at 64 KiB the
	// direct write is 4-9 us faster (EXPERIMENTS.md "State transfer").
	tcpDirectMin = 16 << 10
)

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
	// write allocates nothing: vec is resliced over iov for every write
	// (net.Buffers consumes itself as it goes).
	vec net.Buffers
	iov [2][]byte
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
// per rank, a lazily dialed per-destination connection on the sender
// side, and one reader goroutine per accepted connection. Each
// connection is a one-directional stream of envelopes framed by the
// wire package: its protocol byte, then frames. A stream that opens with
// any other byte fails its first Decode and only that connection closes.
//
// Locking: per-destination tcpConn.mu serializes encodes to that rank
// only; tcpTransport.mu guards the shutdown flag and the socket
// registry (lock order: tcpConn.mu then tcpTransport.mu, never the
// reverse). The accept/read path never takes a tcpConn.mu, and socket
// writes happen with no lock held, on the sending goroutine or the
// connection's flusher, whichever holds the connection's write token.
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
		// before it waits, so it either sees this reader or this branch
		// never runs.
		t.wg.Add(1)
		t.mu.Unlock()
		t.accepts.Inc()
		go t.readLoop(rank, conn)
	}
}

func (t *tcpTransport) readLoop(rank int, conn net.Conn) {
	defer t.wg.Done()
	defer t.deregister(conn)
	defer conn.Close()
	dec := wire.NewDecoder(conn)
	dec.UseFreeList(&t.w.free[rank])
	for {
		var env envelope
		// A reader waits for the next message for as long as the peer
		// stays connected — that is its job. A dead peer cannot hang it:
		// close() closes every registered socket, which fails this Decode.
		//swapvet:ignore deadlineio -- reader lifetime == connection lifetime; close() unblocks it
		if err := dec.Decode(&env); err != nil {
			return
		}
		t.w.boxes[rank].push(env)
	}
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
		direct := len(env.Data) >= tcpDirectMin
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

		var payload []byte
		if direct {
			payload = env.Data
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
// from the caller's slice — payload when there is one, as a single
// vectored write. The caller holds cc's write token and no lock. Every
// write carries a deadline; with sampling on, each successful one records
// its duration, and a failed one counts once in "mpi.tcp.send_errors".
func (t *tcpTransport) writeBatch(cc *tcpConn, conn net.Conn, buf, payload []byte) error {
	clk := t.w.clk
	_ = conn.SetWriteDeadline(clock.RealDeadline(clk, tcpWriteTimeout))
	sample := t.latOn.Load()
	var start time.Time
	if sample {
		start = clk.Now()
	}
	var err error
	if payload == nil {
		_, err = conn.Write(buf)
	} else {
		cc.iov = [2][]byte{buf, payload}
		cc.vec = cc.iov[:]
		_, err = cc.vec.WriteTo(conn)
		cc.iov = [2][]byte{} // a failed write consumed only part of it
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
