package mpi

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// causalPingPong runs a 2-rank exchange on a causal world and returns
// the trace. Every message both ways is causally stamped.
func causalPingPong(t *testing.T, cfg Config, rounds int) []obs.Event {
	t.Helper()
	w, err := NewWorldWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Causal() == nil {
		t.Fatal("causal world reports nil mesh")
	}
	tr := obs.New(cfg.Size)
	tr.Enable()
	w.SetTracer(tr)
	err = w.Run(func(r *Rank) error {
		c := r.World()
		for i := 0; i < rounds; i++ {
			if r.Rank() == 0 {
				if err := c.Send(1, 7, []byte(fmt.Sprintf("ping %d", i))); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, 8); err != nil {
					return err
				}
			} else {
				if _, _, err := c.Recv(0, 7); err != nil {
					return err
				}
				if err := c.Send(0, 8, []byte("pong")); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Events()
}

// assertCausalTrace checks the trace carries a consistent happens-before
// record: paired MsgSend/MsgRecv events whose clocks satisfy the Lamport
// rules with every receive matched to its send.
func assertCausalTrace(t *testing.T, events []obs.Event, wantPairs int) {
	t.Helper()
	check := obs.CheckCausality(events)
	if !check.Ok() {
		t.Fatalf("causality violations in live trace: %v", check.Violations)
	}
	if check.Sends < wantPairs || check.Recvs < wantPairs {
		t.Fatalf("sends=%d recvs=%d, want >= %d each", check.Sends, check.Recvs, wantPairs)
	}
	if check.Matched != check.Recvs {
		t.Fatalf("matched=%d of %d recvs; full trace must match every edge (truncated=%d)",
			check.Matched, check.Recvs, check.Truncated)
	}
	if check.MaxClock == 0 {
		t.Fatal("no Lamport clocks recorded")
	}
}

// TestCausalWorldInproc: the in-process transport carries the Lamport
// piggyback through its envelopes end to end.
func TestCausalWorldInproc(t *testing.T) {
	events := causalPingPong(t, Config{Size: 2, Causal: true}, 5)
	assertCausalTrace(t, events, 10)
}

// TestCausalWorldTCP: on a TCP world the frame's 16-byte extension
// carries the clocks.
func TestCausalWorldTCP(t *testing.T) {
	events := causalPingPong(t, Config{Size: 2, Causal: true, TCP: true}, 5)
	assertCausalTrace(t, events, 10)
}

// TestNonCausalWorldEmitsNoCausalEvents pins the default: without
// Config.Causal no MsgSend/MsgRecv events and no causal fields appear,
// keeping traces byte-identical to pre-causal runs.
func TestNonCausalWorldEmitsNoCausalEvents(t *testing.T) {
	events := causalPingPong(t, Config{Size: 2, Causal: true}, 1)
	_ = events // causal path sanity above; now the actual non-causal world:
	w, err := NewWorldWithConfig(Config{Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Causal() != nil {
		t.Fatal("plain world has a causal mesh")
	}
	tr := obs.New(2)
	tr.Enable()
	w.SetTracer(tr)
	if err := w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			return c.Send(1, 7, []byte("x"))
		}
		_, _, err := c.Recv(0, 7)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindMsgSend || ev.Kind == obs.KindMsgRecv {
			t.Fatalf("non-causal world emitted %v", ev.Kind)
		}
		if ev.LC != 0 || ev.Seq != 0 || ev.PeerLC != 0 {
			t.Fatalf("non-causal world stamped causal fields: %+v", ev)
		}
	}
}

// TestFlightDumpOnPanic: a panicking rank triggers the flight dump (with
// the panic in the reason) before the world closes; the close itself
// dumps again, so the final files exist either way.
func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWorldWithConfig(Config{Size: 2, Causal: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(2)
	rec := flight.New(2, flight.Config{Dir: dir, Events: 16})
	tr.AttachSink(rec)
	w.SetTracer(tr)
	err = w.Run(func(r *Rank) error {
		if r.Rank() == 1 {
			panic("kaboom")
		}
		_, _, err := r.World().RecvTimeout(1, 7, time.Second)
		_ = err // rank 1 never sends; the close or the timeout unblocks us
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("run error = %v, want the panic surfaced", err)
	}
	for rank := 0; rank < 2; rank++ {
		data, rerr := os.ReadFile(filepath.Join(dir, fmt.Sprintf("flight-rank%d.jsonl", rank)))
		if rerr != nil {
			t.Fatalf("rank %d flight dump missing: %v", rank, rerr)
		}
		if !strings.Contains(string(data), "flight-dump: ") {
			t.Fatalf("rank %d dump has no marker: %s", rank, data)
		}
	}
	if st := rec.Status(); st.Dumps < 2 { // panic dump + world-close dump
		t.Fatalf("dumps = %d, want >= 2 (panic + close)", st.Dumps)
	}
}

// TestFlightDumpOnClose: the first World.Close (and only the first)
// dumps the recorder.
func TestFlightDumpOnClose(t *testing.T) {
	dir := t.TempDir()
	w := NewWorld(1)
	tr := obs.New(1)
	rec := flight.New(1, flight.Config{Dir: dir, Events: 4})
	tr.AttachSink(rec)
	w.SetTracer(tr)
	if err := w.Run(func(r *Rank) error { return nil }); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w.Close() // idempotent: must not dump again
	st := rec.Status()
	if st.Dumps != 1 {
		t.Fatalf("dumps = %d, want exactly 1 across repeated Close", st.Dumps)
	}
	if st.LastDump != "world close" {
		t.Fatalf("last dump reason %q", st.LastDump)
	}
}
