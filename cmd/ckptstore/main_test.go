package main

import (
	"bufio"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/swaprt"
)

// startStore calls run with args until the returned stop, and returns
// the address it serves on, read off its log.
func startStore(t *testing.T, args ...string) (addr string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	logr, logw := io.Pipe()
	addrs := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(logr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on "); ok {
				addrs <- strings.Fields(rest)[0]
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, args, logw)
		logw.Close()
	}()
	stop = func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return")
			return nil
		}
	}
	select {
	case addr = <-addrs:
	case err := <-done:
		t.Fatalf("run: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the store never logged its address")
	}
	return addr, stop
}

// TestDirStoreSurvivesRestart: a blob put into a -dir store is served
// back by a new run on the same directory.
func TestDirStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-dir", dir, "-quiet"}
	addr, stop := startStore(t, args...)
	client := swaprt.StoreClient{Addr: addr}
	if err := client.Put("app/rank0", []byte("state at 25")); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Get("app/rank0"); err != nil || string(got) != "state at 25" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if err := stop(); err != nil {
		t.Fatalf("cancelled store: %v, want a clean shutdown", err)
	}

	addr, stop = startStore(t, args...)
	defer stop()
	got, err := swaprt.StoreClient{Addr: addr}.Get("app/rank0")
	if err != nil || string(got) != "state at 25" {
		t.Fatalf("restarted store served %q, %v; want the blob put before the restart", got, err)
	}
}
