package swaprt

import (
	"bytes"
	"encoding/json"
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

// wireRequest is the swapmgr wire envelope, one JSON value per request —
// a decision query, an asynchronous handler report, a swap-outcome
// report closing a proposed epoch, or a liveness ping (used by
// ResilientDecider's recovery probe).
type wireRequest struct {
	Kind    string         `json:"kind"` // "decide", "report", "outcome" or "ping"
	Decide  *DecideRequest `json:"decide,omitempty"`
	Report  *ReportMsg     `json:"report,omitempty"`
	Outcome *OutcomeMsg    `json:"outcome,omitempty"`
}

// wireResponse answers a wireRequest.
type wireResponse struct {
	Decide *DecideResponse `json:"decide,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// RemoteDecider consults a swap-manager daemon (cmd/swapmgr) over TCP:
// each call is one JSON request answered by one JSON response. This is
// the paper's "possibly remote process that is responsible for
// collecting information and making swapping decisions". It is a leaf on
// the client side: each of Decider's four calls is one request kind on
// the wire, and ServeManager hands it to the decider on the other end.
//
// A call is a message, not a connection. The decider keeps at most one
// idle connection: a call takes it, or dials when there is none (another
// call holds it); a call that succeeds puts its connection back when the
// slot is empty and closes it otherwise; a call that fails closes it.
// A kept connection found dead before any byte of the answer arrived —
// the request write fails, or the read meets EOF or a reset, as when the
// manager closed it idle or is an old daemon that answers one request per
// connection — is retried once on a fresh dial. Nothing else is retried
// here; retries belong to ResilientDecider. Use it by pointer: it is safe
// for concurrent calls and must not be copied.
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

// managerConn is one connection to a manager, with the JSON codecs that
// live as long as it does.
type managerConn struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
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
	resp, dead, err := c.exchange(req, clock.RealDeadline(clk, timeout))
	if kept && dead {
		c.conn.Close()
		if c, err = d.dial(clk, timeout); err != nil {
			return wireResponse{}, err
		}
		resp, _, err = c.exchange(req, clock.RealDeadline(clk, timeout))
	}
	if err != nil {
		c.conn.Close()
		return wireResponse{}, err
	}
	d.put(c)
	if resp.Error != "" {
		return wireResponse{}, wireErr{resp.Error}
	}
	return resp, nil
}

func (d *RemoteDecider) dial(clk clock.Clock, timeout time.Duration) (*managerConn, error) {
	conn, err := net.DialTimeout("tcp", d.Addr, clock.RealTimeout(clk, timeout))
	if err != nil {
		return nil, fmt.Errorf("swaprt: dial manager: %w", err)
	}
	return &managerConn{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}, nil
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
func (c *managerConn) exchange(req wireRequest, deadline time.Time) (resp wireResponse, dead bool, err error) {
	_ = c.conn.SetDeadline(deadline)
	if err := c.enc.Encode(req); err != nil {
		return resp, !errors.Is(err, os.ErrDeadlineExceeded), fmt.Errorf("swaprt: send manager request: %w", err)
	}
	if err := c.dec.Decode(&resp); err != nil {
		// A clean EOF already means only whitespace arrived (a partial
		// value is io.ErrUnexpectedEOF); a reset needs the buffer checked.
		partial, _ := io.ReadAll(c.dec.Buffered())
		dead = (errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET)) && len(bytes.TrimSpace(partial)) == 0
		return resp, dead, fmt.Errorf("swaprt: read manager response: %w", err)
	}
	return resp, false, nil
}

// wireErr is an error the manager itself reported: the transport worked
// and the daemon answered, it just declined the request.
type wireErr struct{ msg string }

func (e wireErr) Error() string { return "swaprt: manager: " + e.msg }

func isWireError(err error) bool {
	var we wireErr
	return errors.As(err, &we)
}

// Decide implements Decider.
func (d *RemoteDecider) Decide(req DecideRequest) (DecideResponse, error) {
	resp, err := d.roundTrip(wireRequest{Kind: "decide", Decide: &req})
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
	_, err := d.roundTrip(wireRequest{Kind: "report", Report: &r})
	return err
}

// ReportOutcome implements Decider. Old swapmgr daemons that
// predate the "outcome" kind decline it with an error payload; that is
// interop, not failure — the manager reconciles from the next decide's
// epoch instead — so a wire-level decline reports success.
func (d *RemoteDecider) ReportOutcome(o OutcomeMsg) error {
	_, err := d.roundTrip(wireRequest{Kind: "outcome", Outcome: &o})
	if err != nil && isWireError(err) {
		return nil
	}
	return err
}

// Ping implements Decider: one cheap liveness round trip, used by
// ResilientDecider's background recovery probe. Old swapmgr daemons that
// predate the "ping" kind answer with an error payload, which still
// proves the manager is reachable and serving — so that counts as alive.
func (d *RemoteDecider) Ping() error {
	_, err := d.roundTrip(wireRequest{Kind: "ping"})
	if err != nil && isWireError(err) {
		return nil
	}
	return err
}

// ServeManager runs a swap-manager service on the listener. A connection
// carries any number of requests, each one JSON value — one of Decider's
// four calls — answered in order by one JSON response. ServeManager
// returns when the listener closes, once it has closed every connection
// it was serving: a manager whose listener is gone answers nothing more,
// not even on a connection a client kept.
func ServeManager(ln net.Listener, decider Decider, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
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
	dec, enc := json.NewDecoder(conn), json.NewEncoder(conn)
	for {
		_ = conn.SetDeadline(guard())
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				logf("swapmgr: bad request from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		resp := answer(req, decider, logf)
		_ = conn.SetDeadline(guard())
		if err := enc.Encode(resp); err != nil {
			logf("swapmgr: write response: %v", err)
			return
		}
	}
}

// answer hands one decoded request to the decider. The request is peer
// input: a missing body or a malformed decide request gets an error
// response, never a panic inside the manager.
func answer(req wireRequest, decider Decider, logf func(string, ...any)) wireResponse {
	var resp wireResponse
	switch req.Kind {
	case "decide":
		if req.Decide == nil {
			resp.Error = "decide request without body"
			break
		}
		if err := req.Decide.Validate(); err != nil {
			resp.Error = err.Error()
			break
		}
		out, err := decider.Decide(*req.Decide)
		if err != nil {
			logf("swapmgr: decide error: %v", err)
			resp.Error = err.Error()
			break
		}
		if len(out.Swaps) > 0 {
			logf("swapmgr: epoch %d iter %.2fs -> %d swaps %v",
				req.Decide.Epoch, req.Decide.IterTime, len(out.Swaps), out.Swaps)
		}
		resp.Decide = &out
	case "report":
		if req.Report == nil {
			resp.Error = "report request without body"
			break
		}
		if err := decider.Report(*req.Report); err != nil {
			resp.Error = err.Error()
		}
	case "outcome":
		if req.Outcome == nil {
			resp.Error = "outcome request without body"
			break
		}
		if err := decider.ReportOutcome(*req.Outcome); err != nil {
			logf("swapmgr: outcome error: %v", err)
			resp.Error = err.Error()
			break
		}
		logf("swapmgr: epoch %d outcome: committed=%v quarantined=%v",
			req.Outcome.Epoch, req.Outcome.Committed, req.Outcome.Quarantined)
	case "ping":
		// Liveness probe: an empty successful response is the answer. It
		// goes through the decider so a layer that fronts another
		// service answers for it.
		if err := decider.Ping(); err != nil {
			resp.Error = err.Error()
		}
	default:
		resp.Error = fmt.Sprintf("unknown request kind %q", req.Kind)
	}
	return resp
}
