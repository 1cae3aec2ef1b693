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
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/cmd/swapmon/monclient"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7081", "debug endpoint host:port (or a full /telemetry URL)")
		interval = flag.Duration("interval", time.Second, "poll interval")
		clear    = flag.Bool("clear", true, "clear the terminal between redraws")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	for {
		rep, err := monclient.Fetch(client, *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swapmon:", err)
		} else {
			if *clear {
				fmt.Print("\033[2J\033[H")
			}
			monclient.Render(os.Stdout, rep)
		}
		time.Sleep(*interval)
	}
}
