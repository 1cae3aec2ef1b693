package swaprt

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// flakyStore fronts a real StoreServer with an accept loop that kills
// the next failNext connections before they are served, and wedges the
// next wedgeNext connections (accepted, then silently held open with no
// reply — a stuck store, not a dead one). conns counts every accepted
// connection, served or not.
type flakyStore struct {
	addr      string
	srv       *StoreServer
	failNext  atomic.Int64
	wedgeNext atomic.Int64
	conns     atomic.Int64
}

func startFlakyStore(t *testing.T) *flakyStore {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	f := &flakyStore{addr: ln.Addr().String(), srv: NewStoreServer(nil)}
	var wedged []net.Conn
	var mu sync.Mutex
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range wedged {
			_ = c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.conns.Add(1)
			if f.failNext.Add(-1) >= 0 {
				_ = conn.Close()
				continue
			}
			if f.wedgeNext.Add(-1) >= 0 {
				mu.Lock()
				wedged = append(wedged, conn)
				mu.Unlock()
				continue
			}
			go f.srv.serveConn(conn)
		}
	}()
	return f
}

func TestStoreClientRetriesTransportFailures(t *testing.T) {
	cases := []struct {
		name     string
		failNext int64 // connections killed before the op
		attempts int
		wantErr  bool
	}{
		{"healthy store, no retry budget", 0, 0, false},
		{"one drop absorbed", 1, 2, false},
		{"drops within budget", 2, 3, false},
		{"drops exhaust budget", 3, 3, true},
		{"no budget means no retry", 1, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := startFlakyStore(t)
			c := StoreClient{Addr: f.addr, Attempts: tc.attempts,
				RetryBackoff: time.Millisecond, Timeout: 2 * time.Second}
			blob := bytes.Repeat([]byte{0x5A}, 4096)

			f.failNext.Store(tc.failNext)
			err := c.Put("ckpt", blob)
			if tc.wantErr {
				if err == nil {
					t.Fatal("put survived more drops than its retry budget")
				}
				return
			}
			if err != nil {
				t.Fatalf("put: %v", err)
			}

			// The same budget covers reads.
			f.failNext.Store(tc.failNext)
			got, err := c.Get("ckpt")
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("blob corrupted through retries: %d vs %d bytes", len(got), len(blob))
			}
		})
	}
}

// TestStoreClientHonorsConfiguredTransferTimeout: a client given the
// run's transfer budget must arm it on its operations, so a wedged store
// (it accepts, then never replies) fails within the chaos run's budget
// instead of the client's 30s fallback or the server's old hardcoded
// 60s deadline.
//
// The client is on a 20x scaled clock: the socket deadlines compress
// with it, so the worst case (the runtime's 3s transfer default) costs
// ~150ms of wall time instead of 3s, while every assertion stays in
// virtual units.
func TestStoreClientHonorsConfiguredTransferTimeout(t *testing.T) {
	cases := []struct {
		name        string
		wantTimeout time.Duration
		maxWait     time.Duration
	}{
		{"short chaos budget", 100 * time.Millisecond, 30 * time.Second},
		{"medium budget", 300 * time.Millisecond, 30 * time.Second},
		{"transfer default", 3 * time.Second, 60 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := startFlakyStore(t)
			scaled := clock.NewScaled(20)
			wantTimeout := tc.wantTimeout
			c := StoreClient{Addr: f.addr, Timeout: wantTimeout, Clock: scaled}

			f.wedgeNext.Store(1)
			start := scaled.Now()
			err := c.Put("ckpt", []byte("blob"))
			elapsed := scaled.Since(start)
			if err == nil {
				t.Fatal("put against a wedged store succeeded")
			}
			if elapsed < wantTimeout/2 {
				t.Fatalf("put failed after %v, before the %v budget — not a timeout", elapsed, wantTimeout)
			}
			if elapsed > tc.maxWait {
				t.Fatalf("put took %v against a wedged store, want ~%v (configured timeout ignored)",
					elapsed, wantTimeout)
			}

			// The store recovers: the same client works once it serves again.
			if err := c.Put("ckpt", []byte("blob")); err != nil {
				t.Fatalf("put after store recovery: %v", err)
			}
		})
	}
}

// TestStoreServerConnTimeoutConfigurable pins the server half: a
// configured connection deadline replaces the hardcoded 60s, so a
// client that connects and goes silent is shed within the bound.
func TestStoreServerConnTimeoutConfigurable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	srv := NewStoreServer(nil)
	srv.SetConnTimeout(100 * time.Millisecond)
	go func() { _ = srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing: the server must close the conversation at its
	// deadline, observable as this read unblocking.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server replied to an empty conversation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("silent connection held %v, want ~100ms conn timeout", elapsed)
	}
}

func TestStoreClientDoesNotRetryStoreErrors(t *testing.T) {
	// A decoded reply carrying an error is a definitive answer from a
	// healthy store; burning the retry budget on it would just re-ask.
	f := startFlakyStore(t)
	c := StoreClient{Addr: f.addr, Attempts: 5, RetryBackoff: time.Millisecond}
	_, err := c.Get("missing")
	if err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("err = %v, want missing-key error", err)
	}
	if !isStoreError(err) {
		t.Fatalf("missing-key error not marked as store-reported: %v", err)
	}
	if got := f.conns.Load(); got != 1 {
		t.Fatalf("store saw %d connections, want 1 (no retry on store errors)", got)
	}
}
