package mpi

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// The transport's two allocation gates (DESIGN.md §15) and the
// benchmarks that time the same loops. Each measured loop is written once,
// in floodAndSend or xferExchange: a benchmark hands it b.ResetTimer and
// b.StopTimer, a gate hands it two memory-statistics readings.

// floodAndSend is the head-of-line shape on a 3-rank world: rank 0
// floods rank 1 with 64 KiB messages while it sends n small messages to
// rank 2, calling start just before the first of those sends and stop
// just after the last. When the transport serialises every send behind
// one lock, each small send waits for a whole large encode; with
// per-destination connections the two streams are independent.
func floodAndSend(tb testing.TB, w *World, n int, start, stop func()) {
	tb.Helper()
	flood := bytes.Repeat([]byte{1}, 64<<10)
	small := []byte("ping")
	var halt atomic.Bool
	err := w.Run(func(r *Rank) error {
		c := r.World()
		// Handshake: establish both connections and their read loops
		// before any sustained traffic.
		if r.Rank() == 0 {
			for _, dst := range []int{1, 2} {
				if err := c.Send(dst, 2, nil); err != nil {
					return err
				}
				if _, _, err := c.Recv(dst, 2); err != nil {
					return err
				}
			}
		} else {
			if _, _, err := c.Recv(0, 2); err != nil {
				return err
			}
			if err := c.Send(0, 2, nil); err != nil {
				return err
			}
		}
		if r.Rank() != 0 { // drain until the stop marker arrives
			for {
				_, st, err := c.Recv(0, AnyTag)
				if err != nil {
					return err
				}
				if st.Tag == 1 {
					return nil
				}
			}
		}
		floodDone := make(chan error, 1)
		go func() {
			for !halt.Load() {
				if err := c.Send(1, 0, flood); err != nil {
					floodDone <- err
					return
				}
			}
			floodDone <- c.Send(1, 1, nil) // tell rank 1 to stop
		}()
		time.Sleep(50 * time.Millisecond) // let the flood get going
		start()
		for i := 0; i < n; i++ {
			if err := c.Send(2, 0, small); err != nil {
				return err
			}
		}
		stop()
		halt.Store(true)
		if err := <-floodDone; err != nil {
			return err
		}
		return c.Send(2, 1, nil) // tell rank 2 to stop
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// distinctRanksWorld is floodAndSend's world: plain, or the always-on
// production shape — Lamport piggybacking on the wire plus the flight
// recorder observing every event through the tracer's sink, with the
// tracer's own buffering off.
func distinctRanksWorld(tb testing.TB, causal bool) *World {
	tb.Helper()
	w, err := NewWorldWithConfig(Config{Size: 3, TCP: true, Causal: causal})
	if err != nil {
		tb.Fatal(err)
	}
	if causal {
		tr := obs.New(3)
		tr.AttachSink(flight.New(3, flight.Config{Dir: tb.TempDir()}))
		w.SetTracer(tr)
	}
	return w
}

// TestTCPSendAllocations is the zero-allocation gate on the TCP send hot
// path: 5000 small sends behind the flood allocate less than one object
// per send, counting every goroutine's allocations (the flood, the read
// loops, the flushers), or the pooled wire encoder has regressed into
// per-send garbage. The causal row holds the same line with the frame's
// 16-byte extension and the flight recorder attached: the extension is
// encoded into the pooled frame buffer, decoded into the decoder's own
// header array, and flight rings store events by value. One allocation
// per received frame sits exactly on the bound and shows in some runs
// only (the causal extension read into a local array that escaped, pinned
// by wire.TestDecodeCausalFrameAllocations); a gate that fails now and
// then means a per-frame allocation is back.
func TestTCPSendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const sends = 5000
	for _, c := range []struct {
		name   string
		causal bool
	}{{"plain", false}, {"causal+flight", true}} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			floodAndSend(t, distinctRanksWorld(t, c.causal), sends,
				func() { runtime.ReadMemStats(&before) },
				func() { runtime.ReadMemStats(&after) })
			t.Logf("%d allocations over %d sends", after.Mallocs-before.Mallocs, sends)
			if allocs := (after.Mallocs - before.Mallocs) / sends; allocs != 0 {
				t.Errorf("%d allocations per send on the send hot path (%d over %d sends), want 0",
					allocs, after.Mallocs-before.Mallocs, sends)
			}
		})
	}
}

func BenchmarkTCPSendDistinctRanks(b *testing.B) {
	floodAndSend(b, distinctRanksWorld(b, false), b.N, b.ResetTimer, b.StopTimer)
}

// BenchmarkTCPSendDistinctRanksTraced is the same send path with an
// enabled tracer buffering every event: the cost of full event recording.
func BenchmarkTCPSendDistinctRanksTraced(b *testing.B) {
	w := distinctRanksWorld(b, false)
	tr := obs.New(3, obs.WithLimit(1<<16))
	tr.Enable()
	w.SetTracer(tr)
	floodAndSend(b, w, b.N, b.ResetTimer, b.StopTimer)
}

// BenchmarkTCPSendDistinctRanksCausal is the gate's causal row timed.
func BenchmarkTCPSendDistinctRanksCausal(b *testing.B) {
	floodAndSend(b, distinctRanksWorld(b, true), b.N, b.ResetTimer, b.StopTimer)
}

// xferSizes are the payloads of the transfer benchmarks: a probe report,
// swap-small's state and swap-large's (the paper's 1 MB process).
var xferSizes = []struct {
	name string
	n    int
}{{"16B", 16}, {"4KiB", 4 << 10}, {"1MiB", 1 << 20}}

// xferExchange is one state transfer as the transport sees it, n times:
// a payload of size bytes from rank 0 to rank 1 and an 8-byte ack back,
// through Comm.Send/Recv/Release on a 2-rank TCP world. One exchange
// before them dials both connections; start is called after it and stop
// after the last timed one, both on rank 0.
func xferExchange(tb testing.TB, size, n int, start, stop func()) {
	tb.Helper()
	w, err := NewTCPWorld(2)
	if err != nil {
		tb.Fatal(err)
	}
	payload, ack := bytes.Repeat([]byte{7}, size), make([]byte, 8)
	err = w.Run(func(r *Rank) error {
		c := r.World()
		me, peer := r.Rank(), 1-r.Rank()
		out := [2][]byte{payload, ack}[me]
		for i := -1; i < n; i++ {
			if i == 0 && me == 0 {
				start()
			}
			if me == 0 {
				if err := c.Send(peer, 0, out); err != nil {
					return err
				}
			}
			d, _, err := c.Recv(peer, 0)
			if err != nil {
				return err
			}
			c.Release(d)
			if me == 1 {
				if err := c.Send(peer, 0, out); err != nil {
					return err
				}
			}
		}
		if me == 0 {
			stop()
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestTCPXferAllocations is the transfer layer's copy gate: once both
// connections carried a 1 MiB payload, an exchange of one more (and its
// ack) allocates under 64 KiB on both ranks together. The payload goes
// to the socket straight from the caller's slice and arrives in the
// buffer the previous receive released; a staging buffer, or a writev
// vector allocated per send, shows as a payload-sized allocation.
func TestTCPXferAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const exchanges, bound = 32, 64 << 10
	var before, after runtime.MemStats
	xferExchange(t, 1<<20, exchanges,
		func() { runtime.ReadMemStats(&before) },
		func() { runtime.ReadMemStats(&after) })
	per := (after.TotalAlloc - before.TotalAlloc) / exchanges
	t.Logf("%d bytes allocated per 1 MiB exchange", per)
	if per >= bound {
		t.Errorf("a 1 MiB exchange allocated %d KiB, want under %d KiB (no staging copy)", per>>10, bound>>10)
	}
}

// BenchmarkTCPXfer times xferExchange; BenchmarkLoopbackRaw is the same
// exchange on a bare loopback connection, so the pair reads as what the
// mesh adds to what the link costs.
func BenchmarkTCPXfer(b *testing.B) {
	for _, sz := range xferSizes {
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(sz.n))
			xferExchange(b, sz.n, b.N, b.ResetTimer, b.StopTimer)
		})
	}
}

func BenchmarkLoopbackRaw(b *testing.B) {
	for _, sz := range xferSizes {
		b.Run(sz.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			echoed := make(chan error, 1)
			go func() { // the receiving end: read a payload, write an ack
				conn, err := ln.Accept()
				if err != nil {
					echoed <- err
					return
				}
				defer conn.Close()
				in, ack := make([]byte, sz.n), make([]byte, 8)
				for i := -1; i < b.N; i++ {
					if _, err := io.ReadFull(conn, in); err != nil {
						echoed <- err
						return
					}
					if _, err := conn.Write(ack); err != nil {
						echoed <- err
						return
					}
				}
				echoed <- nil
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(time.Minute))
			payload, ack := bytes.Repeat([]byte{7}, sz.n), make([]byte, 8)
			b.SetBytes(int64(sz.n))
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				if _, err := conn.Write(payload); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(conn, ack); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := <-echoed; err != nil {
				b.Fatal(err)
			}
		})
	}
}
