// Command swapmon is a terminal dashboard for a live swapping run: it
// polls the /telemetry endpoint that swaprun or swapmgr serve on their
// -debug-addr and renders per-rank iteration-time quantiles, probe
// rates, anomaly detections, swap/abort history, payback distances and
// the quarantine/circuit state.
//
// Interactive mode redraws every -interval. The -once mode is the
// machine-checkable form: it polls until the report shows at least
// -min-swaps committed swaps and -min-anomalies detected slowdowns (or
// -timeout expires), prints the final report, and exits 0 on success,
// 1 otherwise — CI's mon-smoke gate. When the run armed the policy
// lens, -min-shadow requires that many shadow-policy decisions and
// -max-mispredict bounds the realized-payback mispredict fraction
// (negative disables) — CI's lens-smoke gate.
//
// Examples:
//
//	swaprun -ranks 4 -telemetry -debug-addr 127.0.0.1:7081 &
//	swapmon -addr 127.0.0.1:7081
//	swapmon -addr 127.0.0.1:7081 -once -min-swaps 1 -min-anomalies 1 -timeout 30s
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
		addr       = flag.String("addr", "127.0.0.1:7081", "debug endpoint host:port (or a full /telemetry URL)")
		interval   = flag.Duration("interval", time.Second, "poll interval")
		once       = flag.Bool("once", false, "poll until the check passes or -timeout, print one report, exit 0/1")
		minSwaps   = flag.Int("min-swaps", 0, "with -once: require at least this many committed swaps")
		minAnoms   = flag.Int("min-anomalies", 0, "with -once: require at least this many detected anomalies")
		minShadow  = flag.Int("min-shadow", 0, "with -once: require at least this many shadow-policy decisions from the policy lens")
		maxMispred = flag.Float64("max-mispredict", -1, "with -once: require the lens mispredict fraction to be at most this (negative = no gate)")
		timeout    = flag.Duration("timeout", 30*time.Second, "with -once: give up after this long")
		clear      = flag.Bool("clear", true, "clear the terminal between interactive redraws")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		runOnce(client, *addr, *interval, *timeout, *minSwaps, *minAnoms, *minShadow, *maxMispred)
		return
	}

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

// runOnce polls until the acceptance check passes or the deadline
// expires, prints the final report either way, and exits 0/1.
func runOnce(client *http.Client, addr string, interval, timeout time.Duration,
	minSwaps, minAnoms, minShadow int, maxMispredict float64) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		rep, err := monclient.Fetch(client, addr)
		if err == nil {
			lastErr = monclient.Check(rep, minSwaps, minAnoms)
			if lastErr == nil {
				lastErr = monclient.CheckLens(rep, minShadow, maxMispredict)
			}
			if lastErr == nil {
				monclient.Render(os.Stdout, rep)
				return
			}
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			if err == nil {
				monclient.Render(os.Stdout, rep)
			}
			fmt.Fprintln(os.Stderr, "swapmon: check failed:", lastErr)
			os.Exit(1)
		}
		time.Sleep(interval)
	}
}
