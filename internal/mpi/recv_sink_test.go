package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/mpi/wire"
)

// RecvTo hands a matching payload to a sink as it is read: off the socket
// when the frame is still on the rank's stream, from its buffer when it
// was queued. These tests pin what both must keep: whatever the sink
// leaves unread is discarded and the stream stays framed, a queued
// payload's buffer goes back to the rank, and a frame cut short by its
// sender's connection fails that receive and nothing after it.

// pairs runs fn on a 2-rank world of each transport.
func pairs(t *testing.T, fn func(t *testing.T, w *World, r0, r1 *Comm)) {
	t.Run("tcp", func(t *testing.T) {
		w, r0, r1 := tcpPair(t)
		fn(t, w, r0, r1)
	})
	t.Run("inproc", func(t *testing.T) {
		w := NewWorld(2)
		t.Cleanup(w.Close)
		fn(t, w, newRank(w, 0).World(), newRank(w, 1).World())
	})
}

// pattern is n bytes that differ from one frame (seed) to the next.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

// sendAsync sends head and tail from rank r's goroutine, which a frame
// larger than the kernel buffers needs on TCP: it goes out as the
// receive reads it.
func sendAsync(r *Comm, to, tag int, head []byte, tail ...[]byte) <-chan error {
	done := make(chan error, 1)
	go func() { done <- r.Send(to, tag, head, tail...) }()
	return done
}

// collect is a sink that keeps everything it reads.
func collect(into *[]byte) Sink {
	return func(r io.Reader, n int) error {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		*into = b
		return err
	}
}

// TestRecvToFailingSinkKeepsStreamFramed: a sink that gives up halfway
// through a 1 MiB message, sent in pieces, fails its receive with its own
// error, and the next message on the same connection arrives intact.
func TestRecvToFailingSinkKeepsStreamFramed(t *testing.T) {
	const n = 1 << 20
	pairs(t, func(t *testing.T, w *World, r0, r1 *Comm) {
		first, second := pattern(n, 1), pattern(n, 2)
		sent := sendAsync(r0, 1, 7, first[:100], first[100:n/2], first[n/2:])
		errHalf := errors.New("sink gave up")
		var saw int
		_, err := r1.RecvTo(0, 7, 5*time.Second, func(r io.Reader, size int) error {
			half := make([]byte, size/2)
			_, err := io.ReadFull(r, half)
			if saw = size; err == nil && !bytes.Equal(half, first[:size/2]) {
				t.Error("the first half of the message read back changed")
			}
			return errHalf
		})
		if !errors.Is(err, errHalf) || saw != n {
			t.Fatalf("RecvTo with a failing sink: %v after a %d-byte payload, want the sink's error after %d", err, saw, n)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		sent = sendAsync(r0, 1, 7, second[:n/3], second[n/3:])
		var got []byte
		if _, err := r1.RecvTo(0, 7, 5*time.Second, collect(&got)); err != nil || !bytes.Equal(got, second) {
			t.Fatalf("next message on the connection: %d bytes, equal %v, %v", len(got), bytes.Equal(got, second), err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		if _, tcp := w.transport.(*tcpTransport); tcp && freeHolds(w, 1, n) {
			t.Fatal("a message on the rank's stream was read into a buffer, not into the sink")
		}
	})
}

// TestRecvToDropsStaleThenTakesCurrent: the swap protocol's receive of a
// state (an 8-byte epoch, then the state): a message of an earlier epoch
// is dropped by its sink after the epoch, and the current one that
// follows it on the same connection is read whole.
func TestRecvToDropsStaleThenTakesCurrent(t *testing.T) {
	const n = 256 << 10
	errStale := errors.New("stale")
	pairs(t, func(t *testing.T, w *World, r0, r1 *Comm) {
		stale, current := pattern(n, 3), pattern(n, 4)
		binary.LittleEndian.PutUint64(stale, 6)
		binary.LittleEndian.PutUint64(current, 7)
		sent := make(chan error, 1)
		go func() {
			err := r0.Send(1, 9, stale[:8], stale[8:])
			if err == nil {
				err = r0.Send(1, 9, current[:8], current[8:])
			}
			sent <- err
		}()
		var epoch [8]byte
		var got []byte
		sink := func(r io.Reader, size int) error {
			if _, err := io.ReadFull(r, epoch[:]); err != nil {
				return err
			}
			if binary.LittleEndian.Uint64(epoch[:]) != 7 {
				return errStale
			}
			got = make([]byte, size-8)
			_, err := io.ReadFull(r, got)
			return err
		}
		dropped := 0
		for {
			_, err := r1.RecvTo(0, 9, 5*time.Second, sink)
			if err == errStale {
				dropped++
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		if dropped != 1 || !bytes.Equal(got, current[8:]) {
			t.Fatalf("dropped %d stale messages and read %d bytes (equal %v), want 1 dropped and the current state",
				dropped, len(got), bytes.Equal(got, current[8:]))
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	})
}

// freeHolds reports whether rank's free list holds a buffer for an
// n-byte payload.
func freeHolds(w *World, rank, n int) bool {
	b := w.free[rank].Get(n)
	w.free[rank].Put(b)
	return b != nil
}

// TestRecvToQueuedPayloadGoesBackToFreeList: a matching message that was
// queued before the receive — it arrived first and a receive for another
// tag read past it, or a reader goroutine decoded it beside a second
// stream, or the world is in-process — reaches the sink from its buffer,
// and the buffer goes back to the rank's free list.
func TestRecvToQueuedPayloadGoesBackToFreeList(t *testing.T) {
	const n = 64 << 10
	check := func(t *testing.T, w *World, r1 *Comm, want []byte) {
		t.Helper()
		if freeHolds(w, 1, n) {
			t.Fatal("the free list held a buffer before the receive")
		}
		var got []byte
		if _, err := r1.RecvTo(0, 5, 2*time.Second, collect(&got)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("queued message: %d bytes (equal %v), %v", len(got), bytes.Equal(got, want), err)
		}
		if !freeHolds(w, 1, n) {
			t.Fatal("the queued payload's buffer did not go back to the free list")
		}
	}
	pairs(t, func(t *testing.T, w *World, r0, r1 *Comm) {
		want := pattern(n, 5)
		if err := r0.Send(1, 5, want[:10], want[10:]); err != nil {
			t.Fatal(err)
		}
		if err := r0.Send(1, 6, []byte("behind")); err != nil {
			t.Fatal(err)
		}
		if data, _, err := r1.RecvTimeout(0, 6, 2*time.Second); err != nil || string(data) != "behind" {
			t.Fatalf("%q, %v", data, err)
		}
		check(t, w, r1, want)
	})
	t.Run("tcp reader goroutine", func(t *testing.T) {
		w, r0, r1 := tcpPair(t)
		if err := r0.Send(1, 1, []byte("mesh")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r1.Recv(0, 1); err != nil {
			t.Fatal(err)
		}
		raw, err := net.Dial("tcp", w.transport.(*tcpTransport).addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		env := envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 2, Data: []byte("raw")}
		if _, err := raw.Write(wire.AppendFrame([]byte{'B'}, &env)); err != nil {
			t.Fatal(err)
		}
		if data, _, err := r1.RecvTimeout(0, 2, 2*time.Second); err != nil || string(data) != "raw" {
			t.Fatalf("frame on the second stream: %q, %v", data, err)
		}
		want := pattern(n, 6)
		if err := r0.Send(1, 5, want[:10], want[10:]); err != nil {
			t.Fatal(err)
		}
		// The reader goroutine of the mesh's stream queues the frame.
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			m := w.boxes[1]
			m.mu.Lock()
			_, queued := m.match(worldCommID, 0, 5, false)
			m.mu.Unlock()
			if queued {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no reader goroutine queued the frame")
			}
		}
		if live, pumped := streams(w, 1); live != 2 || pumped != 2 {
			t.Fatalf("%d live streams, %d with a reader goroutine; want 2 and 2", live, pumped)
		}
		check(t, w, r1, want)
	})
}

// TestRecvToSenderClosedMidFrame: a sender whose connection closes in the
// middle of a 16 MiB message, more than the kernel buffers hold, fails
// its send, the receive whose sink was
// reading it fails with a read error, and the next message — sent again,
// over a new connection — restores the sender's bytes exactly in the
// receiver's memory.
func TestRecvToSenderClosedMidFrame(t *testing.T) {
	const n = 16 << 20
	w, r0, r1 := tcpPair(t)
	state := pattern(n, 7)
	target := make([]byte, n)
	into := func(cut bool) Sink {
		return func(r io.Reader, size int) error {
			if size != n {
				return errors.New("wrong size")
			}
			if _, err := io.ReadFull(r, target[:n/4]); err != nil || !cut {
				if err != nil {
					return err
				}
				_, err = io.ReadFull(r, target[n/4:])
				return err
			}
			cc := w.transport.(*tcpTransport).conns[1]
			cc.mu.Lock()
			c := cc.c
			cc.mu.Unlock()
			c.Close()
			_, err := io.ReadFull(r, target[n/4:])
			return err
		}
	}
	sent := sendAsync(r0, 1, 3, state[:8], state[8:])
	if _, err := r1.RecvTo(0, 3, 5*time.Second, into(true)); err == nil {
		t.Fatal("a message cut short by its sender's connection was read whole")
	}
	if err := <-sent; err == nil {
		t.Fatal("the send whose connection closed under it succeeded")
	}
	sent = sendAsync(r0, 1, 3, state[:8], state[8:])
	if _, err := r1.RecvTo(0, 3, 5*time.Second, into(false)); err != nil || !bytes.Equal(target, state) {
		t.Fatalf("the message sent again: %v, restored exactly = %v", err, bytes.Equal(target, state))
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
