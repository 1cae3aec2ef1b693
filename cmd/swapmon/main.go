// Command swapmon is a terminal dashboard for a live swapping run: it
// polls the /telemetry endpoint that swaprun or swapmgr serve on their
// -debug-addr every -interval and renders per-rank iteration-time
// quantiles, probe rates, anomaly detections, swap/abort history,
// payback distances, the quarantine/circuit state and, when the run
// armed -lens, the policy-lens panel. The same report's machine checks
// (monclient.Check, CheckLens) gate swaprun's smoke tests.
//
// Example:
//
//	swaprun -ranks 4 -telemetry -debug-addr 127.0.0.1:7081 &
//	swapmon -addr 127.0.0.1:7081
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/swapmon/monclient"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "swapmon:", err)
		os.Exit(1)
	}
}

// run parses args and redraws the dashboard on stdout every -interval
// until ctx ends; a poll that fails is reported on stderr and retried.
// The first frame is drawn before ctx is first consulted.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swapmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7081", "debug endpoint host:port (or a full /telemetry URL)")
		interval = fs.Duration("interval", time.Second, "poll interval")
		clear    = fs.Bool("clear", true, "clear the terminal between redraws")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval %s: want a positive poll interval", *interval)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		rep, err := monclient.Fetch(client, *addr)
		if err != nil {
			fmt.Fprintln(stderr, "swapmon:", err)
		} else {
			if *clear {
				fmt.Fprint(stdout, "\033[2J\033[H")
			}
			monclient.Render(stdout, rep)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}
