package mpi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/wire"
)

// TestTCPStreamAdmission pins what a rank's listener does with a stream
// it did not write itself — a raw connection into a 2-rank world. There
// is one frame format and nothing is negotiated: a frame delivers, with
// or without the causal extension and whether or not the receiving world
// keeps Lamport clocks; a stream that opens with any byte but 'B' costs
// its sender that connection and nothing else.
func TestTCPStreamAdmission(t *testing.T) {
	plain := envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 5, Data: []byte("raw")}
	flagged := plain
	flagged.LC, flagged.Seq = 41, 3
	cases := []struct {
		name    string
		causal  bool   // the receiving world's Config.Causal
		stream  []byte // what the raw sender writes
		deliver bool
		clock   uint64 // rank 1's Lamport clock after the receive (causal worlds)
	}{
		{"plain frame", false, wire.AppendFrame([]byte{'B'}, &plain), true, 0},
		{"flagged frame, non-causal world", false, wire.AppendFrame([]byte{'B'}, &flagged), true, 0},
		{"flagged frame, causal world", true, wire.AppendFrame([]byte{'B'}, &flagged), true, 42},
		{"plain frame, causal world", true, wire.AppendFrame([]byte{'B'}, &plain), true, 1},
		{"preamble G", false, wire.AppendFrame([]byte{'G'}, &plain), false, 0},
		{"preamble C", true, wire.AppendFrame([]byte{'C'}, &flagged), false, 0},
		{"preamble Z", false, wire.AppendFrame([]byte{'Z'}, &plain), false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorldWithConfig(Config{Size: 2, TCP: true, Causal: tc.causal})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			conn, err := net.Dial("tcp", w.transport.(*tcpTransport).addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.stream); err != nil {
				t.Fatal(err)
			}
			r0, r1 := newRank(w, 0).World(), newRank(w, 1).World()
			if tc.deliver {
				data, st, err := r1.RecvTimeout(0, 5, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if string(data) != "raw" || st.Source != 0 || st.Tag != 5 {
					t.Fatalf("got %q %+v", data, st)
				}
				// A world without Causal has no clock to merge into; a causal
				// one applies the Lamport receive rule to what the frame carried.
				if cz := w.Causal(); cz != nil && cz.Clock(1) != tc.clock {
					t.Fatalf("rank 1 clock %d after the receive, want %d", cz.Clock(1), tc.clock)
				}
				return
			}
			// Refused: the reader closes this connection (EOF, or a reset
			// because the frame behind the bad byte was never read) ...
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open after a %q preamble: %v", tc.stream[0], err)
			}
			// ... delivers nothing ...
			if _, _, err := r1.RecvTimeout(AnySource, AnyTag, 50*time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
				t.Fatalf("refused stream delivered a message: %v", err)
			}
			// ... and the mesh itself is untouched.
			if err := r0.Send(1, 6, []byte("mesh")); err != nil {
				t.Fatal(err)
			}
			if data, _, err := r1.RecvTimeout(0, 6, 2*time.Second); err != nil || string(data) != "mesh" {
				t.Fatalf("send after a refused stream: %q, %v", data, err)
			}
		})
	}
}

// TestTCPFirstSendLatencyExcludesDial is the satellite-1 regression: the
// lazy first-send dial — here forced through a refused attempt plus a
// 10ms retry backoff — must land in "mpi.tcp.dial_latency_s", never in
// "mpi.tcp.send_latency_s". Under the old accounting the ~10ms dial was
// charged to the send histogram (range 0–10ms), pinning a first send
// into the top bin or overflow and corrupting the p99 the anomaly
// detector replays; a healthy-loopback write must stay in the bottom
// bins.
func TestTCPFirstSendLatencyExcludesDial(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := w.transport.(*tcpTransport)
	sendHist := w.Metrics().Histogram("mpi.tcp.send_latency_s", 0, 0.010, 50)
	dialHist := w.Metrics().Histogram("mpi.tcp.dial_latency_s", 0, 10.0, 50)

	// Reserve a port, then close it: the first dial attempt is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()
	tr.addrs[1] = deadAddr

	w.SetSendLatencySampling(true)
	sendErr := make(chan error, 1)
	go func() {
		sendErr <- tr.send(envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 1, Data: []byte("x")})
	}()

	// Once the first attempt has failed (retry counter moves before the
	// backoff sleep), rebind the listener so the retry succeeds: a slow
	// dial that ultimately works, the exact shape of the old bug.
	deadline := time.Now().Add(5 * time.Second)
	for tr.dialRetry.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first dial attempt never failed")
		}
		time.Sleep(time.Millisecond)
	}
	ln, err = net.Listen("tcp", deadAddr)
	if err != nil {
		t.Fatalf("rebind %s: %v", deadAddr, err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, conn)
	}()
	if err := <-sendErr; err != nil {
		t.Fatalf("send through retried dial: %v", err)
	}

	// The send wrote the socket itself, behind its own dial: the sample
	// is in when it returns.
	snap := sendHist.Snapshot()
	if snap.N() == 0 {
		t.Fatal("no send-latency sample recorded")
	}
	if snap.Over != 0 || snap.Counts[len(snap.Counts)-1] != 0 {
		t.Fatalf("first send charged dial time to send_latency_s: top bin %d, over %d",
			snap.Counts[len(snap.Counts)-1], snap.Over)
	}
	dsnap := dialHist.Snapshot()
	if dsnap.N() == 0 {
		t.Fatal("dial not recorded in dial_latency_s")
	}
}

// TestTCPCloseUnblocksDialRetryStorm is the satellite-2 regression: with
// every sender to a dead rank stuck in dial retries, the senders must
// fail out concurrently — the old code held the per-destination lock
// across the dial backoff schedule, so 32 queued senders drained one
// full schedule at a time (~seconds) even after close().
func TestTCPCloseUnblocksDialRetryStorm(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.transport.(*tcpTransport)

	// Point rank 1 at a dead port: every dial attempt is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()
	tr.addrs[1] = deadAddr

	const senders = 32
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, senders)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tr.send(envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 1})
		}(i)
	}

	// Close mid-storm: senders sleeping in dial backoff must observe it.
	deadline := time.Now().Add(5 * time.Second)
	for tr.dialRetry.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no dial retry observed")
		}
		time.Sleep(time.Millisecond)
	}
	w.Close()
	wg.Wait()
	elapsed := time.Since(start)

	for i, err := range errs {
		if err == nil {
			t.Fatalf("sender %d succeeded against a dead rank", i)
		}
	}
	// Serialized behavior: 32 senders x (two backoff sleeps + refused
	// dials) ≈ a second or more. Concurrent dials with closed() checks
	// finish in one schedule.
	if elapsed > 800*time.Millisecond {
		t.Fatalf("retry storm drained serially: %v for %d senders", elapsed, senders)
	}
}

// TestTCPFaultInjectionOverBothCodecs pins the chaos layer over the TCP
// transport: verdicts are applied above it, so drop and error rules
// behave as they do in process.
func TestTCPFaultInjectionOverBothCodecs(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		inj := &stubInjector{verdicts: map[[2]int]FaultVerdict{
			{0, 1}: {Drop: true, Detail: "eat 0->1"},
			{1, 0}: {Err: errors.New("refused"), Detail: "fail 1->0"},
		}}
		w, err := NewWorldWithConfig(Config{Size: 3, TCP: true, Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *Rank) error {
			c := r.World()
			switch r.Rank() {
			case 0:
				// Dropped: sender sees success, receiver nothing.
				if err := c.Send(1, 1, []byte("lost")); err != nil {
					return err
				}
				// Unfaulted pair still delivers.
				return c.Send(2, 2, []byte("kept"))
			case 1:
				if _, _, err := c.RecvTimeout(0, 1, 50*time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
					return fmt.Errorf("dropped message delivered: %v", err)
				}
				// Injected error: sender observes the fault.
				if err := c.Send(0, 3, []byte("x")); err == nil {
					return errors.New("faulted send succeeded")
				}
				return nil
			default:
				data, _, err := c.Recv(0, 2)
				if err != nil {
					return err
				}
				if string(data) != "kept" {
					return fmt.Errorf("got %q", data)
				}
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Metrics().Counter("mpi.fault.drops").Load(); got != 1 {
			t.Errorf("drops = %d, want 1", got)
		}
		if got := w.Metrics().Counter("mpi.fault.errors").Load(); got != 1 {
			t.Errorf("errors = %d, want 1", got)
		}
	})
}
