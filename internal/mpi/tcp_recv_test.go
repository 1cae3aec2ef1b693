package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mpi/wire"
)

// The receive side of the TCP transport: a rank's receives read its one
// inbound stream themselves (inStream). These tests pin what that must
// keep: a timed receive consumes nothing, a frame is never cut by a
// deadline, per-pair FIFO holds under AnySource, close() reaches a
// receive blocked in a socket read, a connection that sends nothing
// stalls nobody, a second stream moves every stream onto a reader
// goroutine and back, and a send larger than the kernel buffers
// completes against a receive that is waiting for it.

// tcpPair is a 2-rank TCP world whose ranks the test drives from its
// own goroutines.
func tcpPair(t *testing.T) (w *World, r0, r1 *Comm) {
	t.Helper()
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, newRank(w, 0).World(), newRank(w, 1).World()
}

// streams reports rank's live inbound streams and how many of them have
// a reader goroutine.
func streams(w *World, rank int) (live, pumped int) {
	m := w.boxes[rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.streams {
		if s.pumped {
			pumped++
		}
	}
	return len(m.streams), pumped
}

// TestTCPRecvTimeoutConsumesNothing: a timed receive that runs out
// takes nothing off the stream. A frame for another tag that arrives
// while it waits is queued, and the message it waited for, sent after
// the timeout, is matched by the next receive.
func TestTCPRecvTimeoutConsumesNothing(t *testing.T) {
	_, r0, r1 := tcpPair(t)
	if err := r0.Send(1, 1, []byte("open")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := r1.RecvTimeout(0, 5, 20*time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
			t.Fatalf("receive %d with nothing sent: %v, want ErrRecvTimeout", i, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := r1.RecvTimeout(0, 5, 50*time.Millisecond)
		done <- err
	}()
	if err := r0.Send(1, 9, []byte("other")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("receive that saw only another tag: %v, want ErrRecvTimeout", err)
	}
	if err := r0.Send(1, 5, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := r1.RecvTimeout(0, 5, 2*time.Second); err != nil || string(data) != "late" {
		t.Fatalf("message after the timeouts: %q, %v", data, err)
	}
	if data, _, err := r1.RecvTimeout(0, 9, 2*time.Second); err != nil || string(data) != "other" {
		t.Fatalf("frame queued during a timed receive: %q, %v", data, err)
	}
}

// TestTCPRecvLargeFrameAcrossDeadline: a 4 MiB frame that starts to
// arrive around a short deadline is either returned whole or left
// whole for the next receive; the stream carries the next message
// either way.
func TestTCPRecvLargeFrameAcrossDeadline(t *testing.T) {
	const n = 4 << 20
	_, r0, r1 := tcpPair(t)
	for i, lag := range []time.Duration{0, 500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond} {
		want := bytes.Repeat([]byte{byte(i + 1)}, n)
		sent := make(chan error, 1)
		go func() {
			time.Sleep(lag)
			if err := r0.Send(1, 3, want); err != nil {
				sent <- err
				return
			}
			sent <- r0.Send(1, 4, []byte("after"))
		}()
		data, _, err := r1.RecvTimeout(0, 3, 2*time.Millisecond)
		if errors.Is(err, ErrRecvTimeout) {
			data, _, err = r1.RecvTimeout(0, 3, 5*time.Second)
		}
		if err != nil {
			t.Fatalf("lag %v: %v", lag, err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("lag %v: the frame arrived as %d bytes, changed", lag, len(data))
		}
		if data, _, err := r1.RecvTimeout(0, 4, 5*time.Second); err != nil || string(data) != "after" {
			t.Fatalf("lag %v: the message behind the frame: %q, %v", lag, data, err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("lag %v: send: %v", lag, err)
		}
	}
}

// TestTCPRecvAnySourceKeepsPairFIFO: two senders share the receiver's
// stream; receives from AnySource see each sender's messages in the
// order it sent them.
func TestTCPRecvAnySourceKeepsPairFIFO(t *testing.T) {
	const n = 300
	w, err := NewTCPWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, src := range []int{0, 2} {
		c := newRank(w, src).World()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := c.Send(1, 7, []byte{byte(i >> 8), byte(i)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	r1 := newRank(w, 1).World()
	next := map[int]int{}
	for k := 0; k < 2*n; k++ {
		data, st, err := r1.RecvTimeout(AnySource, 7, 5*time.Second)
		if err != nil {
			t.Fatalf("receive %d: %v", k, err)
		}
		if got := int(data[0])<<8 | int(data[1]); got != next[st.Source] {
			t.Fatalf("from rank %d: message %d, want %d", st.Source, got, next[st.Source])
		}
		next[st.Source]++
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// waitReading returns once a receive of rank holds the read token of the
// rank's only stream, that is, it is reading the socket itself.
func waitReading(t *testing.T, w *World, rank int) {
	t.Helper()
	m := w.boxes[rank]
	for deadline := time.Now().Add(2 * time.Second); ; {
		m.mu.Lock()
		reading := len(m.streams) == 1 && m.streams[0].reading
		m.mu.Unlock()
		if reading {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no receive took the stream")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPRecvCloseUnblocksRead: World.Close reaches a receive that is
// blocked reading its rank's socket.
func TestTCPRecvCloseUnblocksRead(t *testing.T) {
	w, r0, r1 := tcpPair(t)
	if err := r0.Send(1, 1, []byte("open")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := r1.Recv(0, 2)
		done <- err
	}()
	waitReading(t, w, 1)
	w.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWorldClosed) {
			t.Fatalf("receive blocked in a read returned %v, want ErrWorldClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("World.Close left a receive blocked in its socket read")
	}
}

// TestTCPRecvIdleStrangerDoesNotStall: a connection that opens and
// sends nothing, or only the protocol byte, is never admitted as a
// stream, so the rank's receives read the mesh as before.
func TestTCPRecvIdleStrangerDoesNotStall(t *testing.T) {
	for _, opening := range [][]byte{nil, {'B'}} {
		t.Run(fmt.Sprintf("opening %q", opening), func(t *testing.T) {
			w, r0, r1 := tcpPair(t)
			stranger, err := net.Dial("tcp", w.transport.(*tcpTransport).addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			defer stranger.Close()
			if _, err := stranger.Write(opening); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := r0.Send(1, 2, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				if data, _, err := r1.RecvTimeout(0, 2, 2*time.Second); err != nil || data[0] != byte(i) {
					t.Fatalf("message %d with an idle stranger connected: %v, %v", i, data, err)
				}
			}
			if live, pumped := streams(w, 1); live != 1 || pumped != 0 {
				t.Fatalf("%d live streams, %d with a reader goroutine; want the mesh's one, read by receives", live, pumped)
			}
		})
	}
}

// TestTCPRecvSecondStream: a second admitted stream (here a raw
// connection that sends a frame) cuts short an untimed receive blocked
// reading the first one and puts both streams on reader goroutines, so
// the message on the second stream reaches it; messages from both are
// received, and once the second one closes the rank's receives read the
// remaining stream themselves again.
func TestTCPRecvSecondStream(t *testing.T) {
	w, r0, r1 := tcpPair(t)
	if err := r0.Send(1, 1, []byte("mesh")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := r1.Recv(0, 1); err != nil || string(data) != "mesh" {
		t.Fatalf("%q, %v", data, err)
	}
	got := make(chan string, 1)
	go func() {
		data, _, err := r1.Recv(0, 2)
		if err != nil {
			t.Error(err)
		}
		got <- string(data)
	}()
	waitReading(t, w, 1)
	raw, err := net.Dial("tcp", w.transport.(*tcpTransport).addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	env := envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 2, Data: []byte("raw")}
	if _, err := raw.Write(wire.AppendFrame([]byte{'B'}, &env)); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if data != "raw" {
			t.Fatalf("frame on the second stream: %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a receive blocked on the first stream never saw the second stream's frame")
	}
	if live, pumped := streams(w, 1); live != 2 || pumped != 2 {
		t.Fatalf("%d live streams, %d with a reader goroutine; want 2 and 2", live, pumped)
	}
	if err := r0.Send(1, 3, []byte("mesh again")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := r1.RecvTimeout(0, 3, 2*time.Second); err != nil || string(data) != "mesh again" {
		t.Fatalf("mesh frame beside a second stream: %q, %v", data, err)
	}
	raw.Close()
	for deadline := time.Now().Add(2 * time.Second); ; {
		if live, pumped := streams(w, 1); live == 1 && pumped == 0 {
			break
		}
		if time.Now().After(deadline) {
			live, pumped := streams(w, 1)
			t.Fatalf("after the second stream closed: %d live, %d with a reader goroutine; want 1 and 0", live, pumped)
		}
		time.Sleep(time.Millisecond)
	}
	if err := r0.Send(1, 4, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := r1.RecvTimeout(0, 4, 2*time.Second); err != nil || string(data) != "direct" {
		t.Fatalf("mesh frame once the stream is the only one again: %q, %v", data, err)
	}
}

// TestTCPRecvLargeSendToWaitingReceiver: a frame far larger than the
// kernel's socket buffers goes out as fast as its receiver reads, and
// completes against a receive that is waiting for it.
func TestTCPRecvLargeSendToWaitingReceiver(t *testing.T) {
	const n = 16 << 20
	_, r0, r1 := tcpPair(t)
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got := make(chan []byte, 1)
	go func() {
		data, _, err := r1.RecvTimeout(0, 3, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		got <- data
	}()
	if err := r0.Send(1, 3, want); err != nil {
		t.Fatal(err)
	}
	if data := <-got; !bytes.Equal(data, want) {
		t.Fatalf("received %d bytes, changed", len(data))
	}
}

// TestTCPRecvIprobeSeesUndecodedFrame: Iprobe finds a message whose
// bytes sit in the socket, decoded by no one yet.
func TestTCPRecvIprobeSeesUndecodedFrame(t *testing.T) {
	w, r0, r1 := tcpPair(t)
	if err := r0.Send(1, 1, []byte("open")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := r0.Send(1, 6, []byte("probe me")); err != nil {
		t.Fatal(err)
	}
	m := w.boxes[1]
	m.mu.Lock()
	queued := len(m.queue)
	m.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d messages decoded before anyone received", queued)
	}
	found := false
	for deadline := time.Now().Add(2 * time.Second); !found && time.Now().Before(deadline); {
		var st Status
		if found, st = r1.Iprobe(0, 6); found && (st.Source != 0 || st.Tag != 6) {
			t.Fatalf("Iprobe status %+v", st)
		}
	}
	if !found {
		t.Fatal("Iprobe never saw a message that was sent")
	}
	if data, _, err := r1.RecvTimeout(0, 6, time.Second); err != nil || string(data) != "probe me" {
		t.Fatalf("receive after the probe: %q, %v", data, err)
	}
}

// TestTCPRecvTimeoutOnFakeClock: on a clock that does not follow the
// wall, a timed receive reading its rank's socket is ended by its clock
// timer's kick, the moment the clock passes the deadline, and consumes
// nothing.
func TestTCPRecvTimeoutOnFakeClock(t *testing.T) {
	fake := clock.NewFake()
	w, err := NewWorldWithConfig(Config{Size: 2, TCP: true, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r0, r1 := newRank(w, 0).World(), newRank(w, 1).World()
	if err := r0.Send(1, 1, []byte("open")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := r1.RecvTimeout(0, 5, 5*time.Second)
		done <- err
	}()
	fake.BlockUntilWaiters(1) // the deadline timer is armed
	select {
	case err := <-done:
		t.Fatalf("RecvTimeout returned %v before the fake clock moved", err)
	case <-time.After(20 * time.Millisecond):
	}
	fake.Advance(5 * time.Second)
	select {
	case err := <-done:
		if !errors.Is(err, ErrRecvTimeout) {
			t.Fatalf("got %v, want ErrRecvTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a receive reading its socket outlived its fake-clock deadline")
	}
	if err := r0.Send(1, 5, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := r1.Recv(0, 5); err != nil || string(data) != "late" {
		t.Fatalf("message after the timeout: %q, %v", data, err)
	}
}
