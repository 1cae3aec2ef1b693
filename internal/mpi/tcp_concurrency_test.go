package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// runWithin fails the test if the world's Run does not complete in d —
// the deadlock regressions below must fail fast, not eat the whole test
// binary timeout.
func runWithin(t *testing.T, w *World, d time.Duration, fn func(r *Rank) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("world.Run still blocked after %v\n%s", d, buf[:n])
	}
}

// TestTCPFloodFromStart is the regression for the seed transport's
// deadlock: with a single global send lock shared with the accept path, a
// sender that filled the kernel socket buffers before the peer's read
// loop was registered blocked in write while holding the lock the accept
// loop needed — permanently. The fixed transport must survive a large
// flood as the very first traffic on the mesh, with no handshake.
func TestTCPFloodFromStart(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	const (
		n       = 64
		payload = 1 << 16 // 64 KiB, comfortably past loopback socket buffers
	)
	data := bytes.Repeat([]byte{0xab}, payload)
	runWithin(t, w, 30*time.Second, func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 0, data); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			d, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if len(d) != payload {
				return fmt.Errorf("message %d truncated to %d bytes", i, len(d))
			}
		}
		return nil
	})
}

// TestTCPConcurrentSends hammers every pair with concurrent senders per
// rank. Run with -race: it exercises the per-destination locks, the lazy
// dials racing each other, and the atomic stats counters.
func TestTCPConcurrentSends(t *testing.T) {
	const (
		size    = 4
		senders = 3  // concurrent sender goroutines per (src, dst) pair
		msgs    = 25 // messages per sender goroutine
	)
	w, err := NewTCPWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 512)
	runWithin(t, w, 30*time.Second, func(r *Rank) error {
		c := r.World()
		var wg sync.WaitGroup
		errCh := make(chan error, size*senders)
		for dst := 0; dst < size; dst++ {
			if dst == r.Rank() {
				continue
			}
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(dst int) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						if err := c.Send(dst, 7, payload); err != nil {
							errCh <- err
							return
						}
					}
				}(dst)
			}
		}
		// Receive everything addressed to me while my senders run.
		want := (size - 1) * senders * msgs
		for i := 0; i < want; i++ {
			if _, _, err := c.Recv(AnySource, 7); err != nil {
				return err
			}
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		return nil
	})
	total := w.Stats().Total()
	wantMsgs := uint64(size * (size - 1) * senders * msgs)
	if total.MsgsSent != wantMsgs || total.MsgsRecv != wantMsgs {
		t.Fatalf("stats: sent %d recv %d, want %d", total.MsgsSent, total.MsgsRecv, wantMsgs)
	}
	if total.BytesSent != wantMsgs*512 || total.BytesRecv != wantMsgs*512 {
		t.Fatalf("stats: sentB %d recvB %d, want %d", total.BytesSent, total.BytesRecv, wantMsgs*512)
	}
}

// TestTCPSharedConnectionOrderAndAliasing: ranks 1-4 share the one
// connection to rank 0 and send it messages of every size class at once,
// each stamped (source, sequence, checksum), and each overwrites its
// slice the moment Send returns. Whoever wrote a frame — its sender
// holding the write token, its sender after waiting for the token, the
// flusher — rank 0 must see every source's messages in order and intact,
// and both write paths must have been taken. Contention alone does not
// make a sender queue (one run saw 900 sends written by their senders and
// none by the flusher), so rank 1 holds the write token while it sends
// one small message, which must queue. `make race` runs it twenty times
// over.
func TestTCPSharedConnectionOrderAndAliasing(t *testing.T) {
	const (
		senders = 4
		msgs    = 200
		window  = 8 // sends between acks: bounds what rank 0's mailbox holds
		hdr     = 12
	)
	sizes := []int{16, 4 << 10, 300 << 10, 1 << 20}
	master := make([]byte, sizes[len(sizes)-1])
	for i := range master {
		master[i] = byte(i*131 + i>>8)
	}
	w, err := NewTCPWorld(senders + 1)
	if err != nil {
		t.Fatal(err)
	}
	runWithin(t, w, 120*time.Second, func(r *Rank) error {
		c := r.World()
		if me := r.Rank(); me != 0 {
			buf := make([]byte, len(master))
			for seq := 0; seq < msgs; seq++ {
				p := buf[:sizes[seq%len(sizes)]]
				copy(p, master)
				binary.LittleEndian.PutUint32(p[0:], uint32(me))
				binary.LittleEndian.PutUint32(p[4:], uint32(seq))
				binary.LittleEndian.PutUint32(p[len(p)-4:], uint32(seq)) // 16 B: the whole body
				binary.LittleEndian.PutUint32(p[8:], crc32.ChecksumIEEE(p[hdr:]))
				var release func()
				if me == 1 && seq == len(sizes) { // 16 B, on a dialed connection
					release = holdWriteToken(w, 0)
				}
				if err := c.Send(0, 3, p); err != nil {
					return err
				}
				if release != nil {
					release()
				}
				clear(p) // the slice is the caller's again
				if seq%window == window-1 {
					if _, _, err := c.Recv(0, 4); err != nil {
						return err
					}
				}
			}
			return nil
		}
		var next [senders + 1]int
		for i := 0; i < senders*msgs; i++ {
			d, _, err := c.Recv(AnySource, 3)
			if err != nil {
				return err
			}
			src, seq := int(binary.LittleEndian.Uint32(d[0:])), int(binary.LittleEndian.Uint32(d[4:]))
			if src < 1 || src > senders {
				return fmt.Errorf("message %d: %d bytes stamped with source %d", i, len(d), src)
			}
			if seq != next[src] || len(d) != sizes[seq%len(sizes)] {
				return fmt.Errorf("message %d: %d bytes stamped (src %d, seq %d), want seq %d of that source", i, len(d), src, seq, next[src])
			}
			if sum := crc32.ChecksumIEEE(d[hdr:]); sum != binary.LittleEndian.Uint32(d[8:]) {
				return fmt.Errorf("message %d of rank %d (%d bytes) arrived changed", seq, src, len(d))
			}
			next[src]++
			c.Release(d)
			if seq%window == window-1 {
				if err := c.Send(src, 4, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	direct := w.Metrics().Counter("mpi.tcp.direct_sends").Load()
	queued := w.Metrics().Counter("mpi.tcp.queued_sends").Load()
	t.Logf("%d sends written by their sender, %d by the flusher", direct, queued)
	if want := uint64(senders * (msgs + msgs/window)); direct+queued != want || direct == 0 || queued == 0 {
		t.Fatalf("%d sends written by their sender + %d queued for the flusher, want both paths taken and %d in all", direct, queued, want)
	}
}

// holdWriteToken takes the write token of the connection to dst, once
// whoever holds it lets it go, as a sender about to write would: until
// release, a small send to dst queues for the flusher. The connection
// must be dialed.
func holdWriteToken(w *World, dst int) (release func()) {
	cc := w.transport.(*tcpTransport).conns[dst]
	cc.mu.Lock()
	for cc.writing {
		cc.drain.Wait()
	}
	cc.writing = true
	cc.mu.Unlock()
	return func() {
		cc.mu.Lock()
		cc.writing = false
		cc.wake.Signal()
		cc.drain.Broadcast()
		cc.mu.Unlock()
	}
}

// TestTCPDeadPeerFailsSend kills one rank's listener before any
// connection exists: a send to the dead rank must fail within the bounded
// dial retries, and traffic to live ranks must be unaffected. Then a live
// connection loses its peer mid-run: the state-sized send whose write
// hits the dead socket returns that error itself, and the send after it
// re-dials and delivers.
func TestTCPDeadPeerFailsSend(t *testing.T) {
	w, err := NewTCPWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := w.transport.(*tcpTransport)
	_ = tr.listeners[2].Close() // rank 2's host dies before anyone dialed it

	start := time.Now()
	err = tr.send(envelope{Comm: worldCommID, Src: 0, Dst: 2, Tag: 0, Data: []byte("x")})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("send to dead rank succeeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("send to dead rank took %v, want bounded failure", elapsed)
	}
	// The mesh is not poisoned: rank 1 is alive and reachable.
	if err := tr.send(envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 0, Data: []byte("y")}); err != nil {
		t.Fatalf("send to live rank after dead-peer failure: %v", err)
	}
	if env, err := w.boxes[1].pop(worldCommID, 0, 0); err != nil || string(env.Data) != "y" {
		t.Fatalf("live rank delivery: %v %q", err, env.Data)
	}

	// Rank 1's end of the connection closes under the sender. (It was
	// accepted and registered before "y" could be delivered.)
	tr.mu.Lock()
	for c := range tr.socks {
		if c.LocalAddr().String() == tr.addrs[1] {
			_ = c.Close()
		}
	}
	tr.mu.Unlock()
	state := envelope{Comm: worldCommID, Src: 0, Dst: 1, Tag: 0, Data: bytes.Repeat([]byte{7}, 1<<20)}
	var failed error
	for try := 0; try < 8 && failed == nil; try++ {
		// The kernel may still take a write or two before the reset comes
		// back; every write is made inside a send, so a failure can only
		// be counted by the send that then returns it.
		failed = tr.send(state)
		if n := tr.sendErrors.Load(); (n != 0) != (failed != nil) {
			t.Fatalf("send %d returned %v with %d failed writes counted", try, failed, n)
		}
	}
	if failed == nil || !strings.Contains(failed.Error(), "write") {
		t.Fatalf("sends into a closed peer socket: %v, want the write error", failed)
	}
	if n := tr.sendErrors.Load(); n != 1 {
		t.Fatalf("one failed write counted %d times", n)
	}
	dials := tr.dials.Load()
	state.Data[0] = 8
	if err := tr.send(state); err != nil {
		t.Fatalf("send after the failed one: %v", err)
	}
	if tr.dials.Load() != dials+1 {
		t.Fatalf("send after the failed one did not re-dial")
	}
	// Nothing written to the closed socket was delivered.
	if env, err := w.boxes[1].pop(worldCommID, 0, 0); err != nil || len(env.Data) != 1<<20 || env.Data[0] != 8 {
		t.Fatalf("delivery over the re-dialed connection: %v, %d bytes", err, len(env.Data))
	}
}

// TestTCPNoGoroutineLeak checks that close() is deterministic: after
// Run returns (which closes the world), every accept and read goroutine
// has exited.
func TestTCPNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		w, err := NewTCPWorld(4)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *Rank) error {
			c := r.World()
			if _, err := c.AllReduceFloat64(OpSum, 1); err != nil {
				return err
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The transport's close() waits for its goroutines, so no settle loop
	// should be needed; allow a short one for runtime bookkeeping only.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
