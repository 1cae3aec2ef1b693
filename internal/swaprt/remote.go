package swaprt

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/clock"
)

// wireRequest is the swapmgr wire envelope: one request per connection —
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
// one JSON-encoded request per connection. This is the paper's "possibly
// remote process that is responsible for collecting information and
// making swapping decisions". It is a leaf on the client side: each of
// Decider's four calls is one request kind on the wire, and ServeManager
// hands it to the decider on the other end.
type RemoteDecider struct {
	Addr string
	// Timeout bounds each round trip; zero means 5 s.
	Timeout time.Duration
	// Clock translates the round-trip budget into real socket deadlines
	// (a scaled clock compresses it); nil means clock.Real.
	Clock clock.Clock
}

func (d RemoteDecider) roundTrip(req wireRequest) (wireResponse, error) {
	timeout := d.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", d.Addr, clock.RealTimeout(clock.Or(d.Clock), timeout))
	if err != nil {
		return wireResponse{}, fmt.Errorf("swaprt: dial manager: %w", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(clock.RealDeadline(clock.Or(d.Clock), timeout))
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return wireResponse{}, fmt.Errorf("swaprt: send manager request: %w", err)
	}
	var resp wireResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return wireResponse{}, fmt.Errorf("swaprt: read manager response: %w", err)
	}
	if resp.Error != "" {
		return wireResponse{}, wireErr{resp.Error}
	}
	return resp, nil
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
func (d RemoteDecider) Decide(req DecideRequest) (DecideResponse, error) {
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
func (d RemoteDecider) Report(r ReportMsg) error {
	_, err := d.roundTrip(wireRequest{Kind: "report", Report: &r})
	return err
}

// ReportOutcome implements Decider. Old swapmgr daemons that
// predate the "outcome" kind decline it with an error payload; that is
// interop, not failure — the manager reconciles from the next decide's
// epoch instead — so a wire-level decline reports success.
func (d RemoteDecider) ReportOutcome(o OutcomeMsg) error {
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
func (d RemoteDecider) Ping() error {
	_, err := d.roundTrip(wireRequest{Kind: "ping"})
	if err != nil && isWireError(err) {
		return nil
	}
	return err
}

// ServeManager runs a swap-manager service on the listener: each
// connection carries one JSON request — one of Decider's four calls —
// answered by one JSON response. It returns when the listener closes.
func ServeManager(ln net.Listener, decider Decider, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, decider, logf)
	}
}

func serveConn(conn net.Conn, decider Decider, logf func(string, ...any)) {
	defer conn.Close()
	// A generous server-side cap on one request's whole conversation. It
	// is a leak guard against wedged clients, not a tuned wait, so it
	// stays on the wall clock even in accelerated runs.
	//swapvet:ignore clockdiscipline -- server-side leak guard; kernel deadline is wall-clock by nature
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	var req wireRequest
	if err := json.NewDecoder(conn).Decode(&req); err != nil {
		logf("swapmgr: bad request from %s: %v", conn.RemoteAddr(), err)
		return
	}
	if err := json.NewEncoder(conn).Encode(answer(req, decider, logf)); err != nil {
		logf("swapmgr: write response: %v", err)
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
