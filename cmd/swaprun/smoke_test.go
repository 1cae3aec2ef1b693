package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cmd/swapmon/monclient"
	"repro/internal/obs"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

// The smoke scenarios' shared command lines.
const (
	// forcedSwap: rank 0's host slows 8x at 0.05 s, so the one spare
	// must be swapped in.
	forcedSwap = "-ranks 2 -active 1 -iters 20 -work 10 -inject 0@0.05:8"
	// chaosRun: rank 0's host is slow from the first iteration and the
	// fastest spare is dead from the start, so the first swap must abort
	// and quarantine it; the decision service goes down for a window (the
	// circuit must open, probe and close before the run ends ≈ 2 s later).
	// Nothing waits on a timer racing the run: on a starved host a 0.05 s
	// onset on the 25x clock can land after a short run has finished. On
	// that clock a 2 s transfer deadline costs 80 ms of wall time.
	chaosRun = "-ranks 3 -active 1 -iters 100 -work 5 -inject 0@0:8,1@0:4 " +
		"-chaos seed=7;die:rank=2,iter=0;mgrdown:after=2,count=6 -transfer-timeout 2s -accel 25"
	// liveRun: 5 s of virtual work on a 10x clock, serving its telemetry
	// on a port the kernel picks.
	liveRun = "-ranks 3 -active 1 -iters 1000 -work 5 -inject 0@0.2:8,1@0:4 -accel 10 " +
		"-telemetry -debug-addr 127.0.0.1:0"
)

// smokeBudget bounds the wall time of the chaos, mon and lens rows
// together: every wait on their path is in virtual time, so a real-time
// wait (a bare sleep, an unscaled deadline) that creeps in fails here.
const smokeBudget = 30 * time.Second

// smoke is one end-to-end scenario: swaprun's arguments ({dir} is the
// row's temp directory) and what the run must show. Every row requires
// run to return nil, which includes the exact fault-free accumulator on
// every active lane.
type smoke struct {
	name   string
	args   string
	budget bool // counts toward smokeBudget
	// poll, for a run serving -debug-addr: the dashboard check that must
	// pass on its /telemetry while it runs.
	poll  func(swaprt.TelemetryReport) error
	check func(t *testing.T, dir, stdout string)
}

var smokes = []smoke{{
	name:  "trace",
	args:  forcedSwap + " -accel 10 -lens -trace-out {dir}/run.json -events-out {dir}/run.jsonl",
	check: func(t *testing.T, dir, _ string) { checkTrace(t, dir) },
}, {
	name:   "chaos",
	args:   chaosRun + " -trace-out {dir}/run.json",
	budget: true,
	check: func(t *testing.T, dir, _ string) {
		if c := checkTrace(t, dir); c.Quarantines == 0 || !c.CircuitRecovered {
			t.Errorf("chaos evidence: %d quarantines, circuit %d open / %d close (recovered %v)",
				c.Quarantines, c.CircuitOpens, c.CircuitCloses, c.CircuitRecovered)
		}
	},
}, {
	name: "postmortem",
	args: chaosRun + " -causal -flight-dir {dir}/flight",
	check: func(t *testing.T, dir, _ string) {
		var merged []obs.Event
		for r := 0; r < 3; r++ {
			evs := readEvents(t, filepath.Join(dir, "flight", fmt.Sprintf("flight-rank%d.jsonl", r)))
			if len(evs) == 0 {
				t.Errorf("rank %d: empty flight dump", r)
			}
			merged = append(merged, evs...)
		}
		merged = append(merged, readEvents(t, filepath.Join(dir, "flight", "flight-runtime.jsonl"))...)
		obs.SortCausal(merged)
		if c := obs.CheckCausality(merged); !c.Ok() {
			t.Errorf("merged dumps are not causally consistent: %v", c.Violations)
		}
		aborts := 0
		for _, ev := range merged {
			if ev.Kind == obs.KindSwapAbort || ev.Kind == obs.KindQuarantine {
				aborts++
			}
		}
		if aborts == 0 {
			t.Error("the dumps hold no SwapAbort or Quarantine event")
		}
	},
}, {
	// The manager is killed after its 4th call — rank 1 is slow from the
	// start, so the first swap's records are already in the WAL — and
	// restarted 100 ms later. The
	// standby's takeover (down window, lease expiry, WAL replay) lands
	// about 1 s into the run; 400 iterations keep the run going ≈ 7 s
	// longer, so a wall-clock stall of a starved host (×25 on this clock)
	// cannot end the run before the recovery.
	name: "failover",
	args: "-ranks 4 -active 2 -iters 400 -work 20 -inject 1@0:8 " +
		"-chaos seed=7;mgrrestart:after=4,downms=100 -mgr-store {dir}/store -mgr-lease-ttl 250ms " +
		"-accel 25 -trace-out {dir}/run.json",
	check: func(t *testing.T, dir, _ string) {
		if c := checkTrace(t, dir); c.Crashes == 0 || c.WALRecoveries == 0 || c.PostRecovery == 0 {
			t.Errorf("failover evidence: %d crashes, %d WAL-replay recoveries, %d decisions after recovery",
				c.Crashes, c.WALRecoveries, c.PostRecovery)
		}
	},
}, {
	name:   "lens-offline",
	args:   forcedSwap + " -lens -events-out {dir}/run.jsonl",
	budget: true,
	check: func(t *testing.T, dir, _ string) {
		evs := readEvents(t, filepath.Join(dir, "run.jsonl"))
		records := 0
		for _, ev := range evs {
			if ev.Kind == obs.KindSwapRecord {
				records++
				checkPhases(t, ev.Dur, ev.Round)
			}
		}
		if records == 0 {
			t.Error("a run that swapped left no swap record")
		}
		res := policylens.Audit(evs)
		if !res.OK() {
			var report bytes.Buffer
			_ = res.WriteReport(&report)
			t.Errorf("the policy-lens contract does not hold:\n%s", &report)
		}
	},
}, {
	name:   "mon",
	args:   liveRun + " -chaos seed=7;die:rank=2,iter=3;mgrdown:after=2,count=6 -transfer-timeout 2s",
	budget: true,
	poll:   func(rep swaprt.TelemetryReport) error { return monclient.Check(rep, 1, 1) },
}, {
	name:   "lens-live",
	args:   liveRun + " -lens",
	budget: true,
	poll: func(rep swaprt.TelemetryReport) error {
		return errors.Join(monclient.Check(rep, 1, 0), monclient.CheckLens(rep, 1, -1))
	},
}, {
	// Four scenarios, each on a fresh world, plan and manager store: the
	// manager dies and recovers in every one of them.
	name: "sweep",
	args: "-scenarios 4 -accel 50 -chaos seed=7;mgrrestart:after=4,downms=100 -lens",
	check: func(t *testing.T, _, stdout string) {
		var ok, failed, swaps int
		if _, err := fmt.Sscanf(stdout, "sweep: %d ok, %d failed, %d swaps", &ok, &failed, &swaps); err != nil ||
			ok != 4 || failed != 0 || swaps < 1 {
			t.Errorf("want 4 ok, 0 failed, at least one swap; got %q", stdout)
		}
	},
}}

// TestSmoke runs every smoke scenario through run, in process.
func TestSmoke(t *testing.T) {
	var spent time.Duration
	for _, row := range smokes {
		t.Run(row.name, func(t *testing.T) {
			start := time.Now()
			row.run(t)
			if row.budget {
				spent += time.Since(start)
			}
		})
	}
	t.Run("budget", func(t *testing.T) {
		if spent > smokeBudget {
			t.Errorf("the chaos, mon and lens rows took %s of wall time, budget %s", spent, smokeBudget)
		}
	})
}

func (row smoke) run(t *testing.T) {
	dir := t.TempDir()
	args := strings.Fields(strings.ReplaceAll(row.args, "{dir}", dir))
	var stdout bytes.Buffer
	stderr := &runLog{addr: make(chan string, 1)}
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		runErr = run(args, &stdout, stderr)
	}()
	var pollErr error
	if row.poll != nil {
		pollErr = pollDashboard(stderr, done, row.poll)
	}
	<-done
	if err := errors.Join(runErr, pollErr); err != nil {
		t.Fatalf("swaprun %s: %v\nlog:\n%s", row.args, err, stderr)
	}
	if row.check != nil {
		row.check(t, dir, stdout.String())
	}
	if t.Failed() {
		t.Logf("swaprun %s\nstdout:\n%s\nlog:\n%s", row.args, &stdout, stderr)
	}
}

// pollDashboard fetches the run's /telemetry, at the address the run
// logs, until check passes; it fails if the run ends first.
func pollDashboard(stderr *runLog, done <-chan struct{}, check func(swaprt.TelemetryReport) error) error {
	var addr string
	select {
	case addr = <-stderr.addr:
	case <-done:
		return errors.New("the run ended without serving its debug endpoint")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		rep, err := monclient.Fetch(client, addr)
		if err == nil {
			if err = check(rep); err == nil {
				return nil
			}
		}
		select {
		case <-done:
			return fmt.Errorf("the run ended before the dashboard check passed: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// runLog is run's stderr: it keeps the log for failure messages and
// hands out the debug endpoint's address once run logs it.
type runLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

var debugLine = regexp.MustCompile(`debug endpoint on http://(\S+)`)

func (l *runLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := debugLine.FindSubmatch(p); m != nil {
		select {
		case l.addr <- string(m[1]):
		default:
		}
	}
	return l.buf.Write(p)
}

func (l *runLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// checkTrace schema-checks dir/run.json and runs obs.CheckTrace over
// it, failing on any violation (two clocks in one timeline, a decision
// epoch stepping backwards, a proposed round without exactly one swap
// record), on a run that left no SwapDecision carrying payback + verdict
// or no swap record, and on a record whose phases do not sum to its paid
// time.
func checkTrace(t *testing.T, dir string) obs.TraceCheck {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := obs.ValidateChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.CheckTrace(entries)
	if !c.Ok() {
		t.Errorf("trace violations: %v", c.Violations)
	}
	if c.Complete == 0 {
		t.Errorf("%d decisions, none carrying payback + verdict", c.Decisions)
	}
	if c.Records == 0 {
		t.Error("a run that swapped left no swap record")
	}
	for _, e := range entries {
		if e["name"] != obs.KindSwapRecord.String() {
			continue
		}
		args, _ := e["args"].(map[string]any)
		b, err := json.Marshal(args["round"])
		var round obs.SwapRound
		if err == nil {
			err = json.Unmarshal(b, &round)
		}
		if err != nil {
			t.Fatalf("swap record's round: %v", err)
		}
		dur, _ := e["dur"].(float64)
		checkPhases(t, dur/1e6, &round)
	}
	return c
}

// checkPhases holds a swap record's phases to its paid time: plan
// through rebuild sum to it within 1 %.
func checkPhases(t *testing.T, paid float64, round *obs.SwapRound) {
	t.Helper()
	if round == nil {
		t.Error("swap record without its round")
		return
	}
	if sum := round.Phases.Paid(); paid <= 0 || math.Abs(sum-paid) > 0.01*paid {
		t.Errorf("swap record paid %.6gs, its phases %+v sum to %.6gs", paid, round.Phases, sum)
	}
}

func readEvents(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}
