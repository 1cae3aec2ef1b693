// Command ckptstore runs the central checkpoint store of the paper's
// checkpoint/restart technique: ranks write their registered state to it
// (Session.CheckpointTo) and a restarted run reads the state back
// (Session.RestoreFrom).
//
// By default blobs live in memory and die with the process. With -dir
// each blob is a CRC-framed file written via temp+fsync+rename, so
// checkpoints survive a store restart and a torn write can never be
// served back as state.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight operations finish, and the process exits 0. Any other serve
// failure exits non-zero.
//
// Example:
//
//	ckptstore -addr 127.0.0.1:7080 -dir /var/lib/ckptstore
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/swaprt"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "ckptstore:", err)
		os.Exit(1)
	}
}

// run parses args and serves the store they describe, logging on
// stderr, until ctx ends (nil: a clean shutdown) or serving fails.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("ckptstore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr  = fs.String("addr", "127.0.0.1:7080", "listen address")
		dir   = fs.String("dir", "", "durable blob directory (empty = in-memory)")
		quiet = fs.Bool("quiet", false, "suppress per-operation logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(stderr, "", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}
	srv := swaprt.NewStoreServer(logf)
	where := "in-memory"
	if *dir != "" {
		var err error
		if srv, err = swaprt.NewStoreServerDir(*dir, logf); err != nil {
			return err
		}
		where = "durable dir " + *dir
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	defer context.AfterFunc(ctx, func() { ln.Close() })()

	logger.Printf("ckptstore: serving on %s (%s)", ln.Addr(), where)
	if err := srv.Serve(ln); !errors.Is(err, net.ErrClosed) {
		return err
	}
	logger.Printf("ckptstore: clean shutdown")
	return nil
}
