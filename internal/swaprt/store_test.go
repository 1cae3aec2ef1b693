package swaprt

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
)

func startStore(t *testing.T) (StoreClient, *StoreServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	srv := NewStoreServer(nil)
	go func() { _ = srv.Serve(ln) }()
	return StoreClient{Addr: ln.Addr().String()}, srv
}

func TestStorePutGetRoundTrip(t *testing.T) {
	c, srv := startStore(t)
	blob := bytes.Repeat([]byte{0xAB, 0xCD}, 50000)
	if err := c.Put("run1/rank0", blob); err != nil {
		t.Fatal(err)
	}
	if srv.Keys() != 1 {
		t.Fatalf("Keys = %d", srv.Keys())
	}
	got, err := c.Get("run1/rank0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("blob corrupted: %d vs %d bytes", len(got), len(blob))
	}
}

func TestStoreGetMissingKey(t *testing.T) {
	c, _ := startStore(t)
	if _, err := c.Get("nope"); err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreOverwrite(t *testing.T) {
	c, _ := startStore(t)
	if err := c.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
}

func TestStoreEmptyBlob(t *testing.T) {
	c, _ := startStore(t)
	if err := c.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestStoreConcurrentClients(t *testing.T) {
	c, srv := startStore(t)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("rank%d", i)
			blob := bytes.Repeat([]byte{byte(i)}, 10000+i)
			if err := c.Put(key, blob); err != nil {
				errs[i] = err
				return
			}
			got, err := c.Get(key)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, blob) {
				errs[i] = fmt.Errorf("rank %d corrupted", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.Keys() != 16 {
		t.Fatalf("Keys = %d", srv.Keys())
	}
}

func TestStoreRejectsUnknownOp(t *testing.T) {
	c, _ := startStore(t)
	conn, err := net.Dial("tcp", c.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"del","key":"x"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if !strings.Contains(string(buf[:n]), "unknown op") {
		t.Fatalf("reply = %q", buf[:n])
	}
}

func TestStoreRejectsHugeSize(t *testing.T) {
	c, _ := startStore(t)
	conn, err := net.Dial("tcp", c.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"put","key":"x","size":99999999999}` + "\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if !strings.Contains(string(buf[:n]), "out of range") {
		t.Fatalf("reply = %q", buf[:n])
	}
}

func TestSessionCheckpointViaStore(t *testing.T) {
	// Full CR flow: run 1 checkpoints each active rank's state to the
	// central store; run 2 (fresh world, as after a restart on new
	// hosts) restores and finishes.
	c, _ := startStore(t)
	const n = 10
	body := func(limit int, restore bool, out *sync.Map) func(*Session) error {
		return func(s *Session) error {
			iter := 0
			acc := 0.0
			s.Register("iter", &iter)
			s.Register("acc", &acc)
			key := fmt.Sprintf("app/rank%d", s.Comm().Rank())
			if restore && s.Active() {
				if err := s.RestoreFrom(c, key); err != nil {
					return err
				}
			}
			for !s.Done() && iter < limit {
				if s.Active() {
					acc += float64(iter)
					iter++
				}
				if err := s.SwapPoint(); err != nil {
					return err
				}
			}
			if s.Active() {
				if !restore {
					if err := s.CheckpointTo(c, key); err != nil {
						return err
					}
				}
				out.Store(s.Comm().Rank(), acc)
			}
			return nil
		}
	}

	var mid sync.Map
	err := Run(mpi.NewWorld(2), Config{
		Active: 2, Probe: func(int) float64 { return 1 },
	}, body(6, false, &mid))
	if err != nil {
		t.Fatal(err)
	}

	var final sync.Map
	err = Run(mpi.NewWorld(2), Config{
		Active: 2, Probe: func(int) float64 { return 1 },
	}, body(n, true, &final))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < n; i++ {
		want += float64(i)
	}
	for rank := 0; rank < 2; rank++ {
		v, ok := final.Load(rank)
		if !ok || v.(float64) != want {
			t.Fatalf("rank %d restored sum = %v, want %g", rank, v, want)
		}
	}
}
