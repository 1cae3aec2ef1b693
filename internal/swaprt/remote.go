package swaprt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/clock"
)

// RemoteDecider consults a swap-manager daemon (cmd/swapmgr) over TCP:
// each call is one request frame answered by one response frame
// (mgrframe.go). This is the paper's "possibly remote process that is
// responsible for collecting information and making swapping
// decisions". It is a leaf on the client side: each of Decider's four
// calls is one request kind on the wire, and ServeManager hands it to
// the decider on the other end.
//
// A call is a message, not a connection. The decider keeps at most one
// idle connection: a call takes it, or dials when there is none (another
// call holds it); a call that succeeds puts its connection back when the
// slot is empty and closes it otherwise; a call that fails closes it.
// A kept connection found dead before any byte of the answer arrived —
// the request write fails, or the read meets EOF or a reset, as when the
// manager closed it idle — is retried once on a fresh dial. Nothing else
// is retried here; retries belong to ResilientDecider. Use it by
// pointer: it is safe for concurrent calls and must not be copied.
type RemoteDecider struct {
	Addr string
	// Timeout bounds each round trip; zero means 5 s.
	Timeout time.Duration
	// Clock translates the round-trip budget into real socket deadlines
	// (a scaled clock compresses it); nil means clock.Real.
	Clock clock.Clock

	mu   sync.Mutex
	idle *managerConn // the kept connection, nil when none
}

// managerConn is one connection to a manager, with the buffers that
// live as long as it does.
type managerConn struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte // the request frame, call to call
	rbuf []byte // the answer's body, call to call
}

func (d *RemoteDecider) roundTrip(req wireRequest) (wireResponse, error) {
	timeout := d.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	clk := clock.Or(d.Clock)
	c := d.take()
	kept := c != nil
	if !kept {
		var err error
		if c, err = d.dial(clk, timeout); err != nil {
			return wireResponse{}, err
		}
	}
	resp, dead, err := c.exchange(&req, clock.RealDeadline(clk, timeout))
	if kept && dead {
		c.conn.Close()
		if c, err = d.dial(clk, timeout); err != nil {
			return wireResponse{}, err
		}
		resp, _, err = c.exchange(&req, clock.RealDeadline(clk, timeout))
	}
	if err != nil {
		c.conn.Close()
		return wireResponse{}, err
	}
	d.put(c)
	if resp.Error != "" {
		return wireResponse{}, errors.New("swaprt: manager: " + resp.Error)
	}
	return resp, nil
}

func (d *RemoteDecider) dial(clk clock.Clock, timeout time.Duration) (*managerConn, error) {
	conn, err := net.DialTimeout("tcp", d.Addr, clock.RealTimeout(clk, timeout))
	if err != nil {
		return nil, fmt.Errorf("swaprt: dial manager: %w", err)
	}
	return &managerConn{conn: conn, br: bufio.NewReader(conn)}, nil
}

// take empties the slot and returns what it held.
func (d *RemoteDecider) take() *managerConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.idle
	d.idle = nil
	return c
}

// put keeps c for the next call, or closes it when the slot is taken.
func (d *RemoteDecider) put(c *managerConn) {
	d.mu.Lock()
	kept := d.idle == nil
	if kept {
		d.idle = c
	}
	d.mu.Unlock()
	if !kept {
		c.conn.Close()
	}
}

// exchange writes one request and reads its answer. dead reports a
// failure that left the request unanswered on a connection the peer had
// already closed or reset: the write failed (not by timing out), or the
// read met EOF or a reset before any byte of the answer arrived.
func (c *managerConn) exchange(req *wireRequest, deadline time.Time) (resp wireResponse, dead bool, err error) {
	_ = c.conn.SetDeadline(deadline)
	if c.wbuf, err = appendFrame(c.wbuf, func(b []byte) []byte { return appendRequest(b, req) }); err != nil {
		return resp, false, err
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return resp, !errors.Is(err, os.ErrDeadlineExceeded), fmt.Errorf("swaprt: send manager request: %w", err)
	}
	body, started, err := readFrame(c.br, c.rbuf)
	c.rbuf = body
	if err != nil {
		dead = !started && (errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET))
		return resp, dead, fmt.Errorf("swaprt: read manager response: %w", err)
	}
	resp, err = decodeResponse(body)
	return resp, false, err
}

// Decide implements Decider.
func (d *RemoteDecider) Decide(req DecideRequest) (DecideResponse, error) {
	resp, err := d.roundTrip(wireRequest{Kind: kindDecide, Decide: &req})
	if err != nil {
		return DecideResponse{}, err
	}
	if resp.Decide == nil {
		return DecideResponse{}, nil
	}
	return *resp.Decide, nil
}

// Report implements Decider.
func (d *RemoteDecider) Report(r ReportMsg) error {
	_, err := d.roundTrip(wireRequest{Kind: kindReport, Report: &r})
	return err
}

// ReportOutcome implements Decider.
func (d *RemoteDecider) ReportOutcome(o OutcomeMsg) error {
	_, err := d.roundTrip(wireRequest{Kind: kindOutcome, Outcome: &o})
	return err
}

// Ping implements Decider: one cheap liveness round trip, used by
// ResilientDecider's background recovery probe.
func (d *RemoteDecider) Ping() error {
	_, err := d.roundTrip(wireRequest{Kind: kindPing})
	return err
}

// ServeManager runs a swap-manager service on the listener. A connection
// carries any number of request frames, each one of Decider's four
// calls, answered in order by one response frame each. ServeManager
// returns when the listener closes, once it has closed every connection
// it was serving: a manager whose listener is gone answers nothing more,
// not even on a connection a client kept. A nil logf logs nothing.
func ServeManager(ln net.Listener, decider Decider, logf func(string, ...any)) error {
	var mu sync.Mutex
	conns := map[net.Conn]struct{}{}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for conn := range conns {
			conn.Close()
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		go func() {
			serveConn(conn, decider, logf)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
}

func serveConn(conn net.Conn, decider Decider, logf func(string, ...any)) {
	defer conn.Close()
	// A generous cap on the wait for each request and on each answer. It
	// is a leak guard against wedged or idle clients, not a tuned wait, so
	// it stays on the wall clock even in accelerated runs; a client finds
	// a connection closed idle dead and redials. Re-arming it for the
	// answer keeps a request that lands just before the cap from being
	// carried out and then left unanswered.
	guard := func() time.Time { return clock.RealDeadline(clock.Real{}, 30*time.Second) }
	br := bufio.NewReader(conn)
	var (
		sc         wireScratch
		rbuf, wbuf []byte
	)
	for {
		_ = conn.SetDeadline(guard())
		body, _, err := readFrame(br, rbuf)
		rbuf = body
		if err != nil {
			if logf != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				logf("swapmgr: bad frame from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		resp := sc.answer(body, decider, logf)
		if wbuf, err = appendFrame(wbuf, func(b []byte) []byte { return appendResponse(b, &resp) }); err != nil {
			if logf != nil {
				logf("swapmgr: answer: %v", err)
			}
			return
		}
		_ = conn.SetDeadline(guard())
		if _, err := conn.Write(wbuf); err != nil {
			if logf != nil {
				logf("swapmgr: write response: %v", err)
			}
			return
		}
	}
}

// answer decodes one request body and hands it to the decider. The body
// is peer input: one that does not decode, or a malformed decide
// request, gets an error answer, never a panic inside the manager. A
// decision lives in sc until the next request. Log lines are built only
// when there is a logf.
func (sc *wireScratch) answer(body []byte, decider Decider, logf func(string, ...any)) wireResponse {
	req, err := sc.decodeRequest(body)
	if err != nil {
		return wireResponse{Error: err.Error()}
	}
	var resp wireResponse
	switch req.Kind {
	case kindDecide:
		if err := req.Decide.Validate(); err != nil {
			resp.Error = err.Error()
			break
		}
		out, err := decider.Decide(*req.Decide)
		if err != nil {
			if logf != nil {
				logf("swapmgr: decide error: %v", err)
			}
			resp.Error = err.Error()
			break
		}
		if logf != nil && len(out.Swaps) > 0 {
			logf("swapmgr: epoch %d iter %.2fs -> %d swaps %v",
				req.Decide.Epoch, req.Decide.IterTime, len(out.Swaps), out.Swaps)
		}
		sc.resp = out
		resp.Decide = &sc.resp
	case kindReport:
		if err := decider.Report(*req.Report); err != nil {
			resp.Error = err.Error()
		}
	case kindOutcome:
		if err := decider.ReportOutcome(*req.Outcome); err != nil {
			if logf != nil {
				logf("swapmgr: outcome error: %v", err)
			}
			resp.Error = err.Error()
			break
		}
		if logf != nil {
			logf("swapmgr: epoch %d outcome: committed=%v quarantined=%v",
				req.Outcome.Epoch, req.Outcome.Committed, req.Outcome.Quarantined)
		}
	case kindPing:
		// Liveness probe: an empty successful response is the answer. It
		// goes through the decider so a layer that fronts another
		// service answers for it.
		if err := decider.Ping(); err != nil {
			resp.Error = err.Error()
		}
	}
	return resp
}
